package client

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
)

func TestNodeCacheSavesReads(t *testing.T) {
	// With the node cache enabled, repeated searches over a static tree must
	// serve internal nodes locally: strictly fewer chunk fetches than the
	// plain client, identical results. Covers both traversal pipelines.
	for _, multi := range []bool{false, true} {
		name := "single-issue"
		if multi {
			name = "multi-issue"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
			plain := r.newClient(t, "plain", Config{Forced: MethodOffload, MultiIssue: multi})
			cached := r.newClient(t, "cached", Config{Forced: MethodOffload, MultiIssue: multi, NodeCache: 256})
			rng := rand.New(rand.NewSource(3))
			const searches = 40
			r.e.Spawn("driver", func(p *sim.Proc) {
				defer r.e.Stop()
				for i := 0; i < searches; i++ {
					q := randRect(rng, 0.05)
					want := expected(t, r.tree, q)
					a, _, err := plain.On(p).Search(q)
					if err != nil {
						t.Error(err)
						return
					}
					b, _, err := cached.On(p).Search(q)
					if err != nil {
						t.Error(err)
						return
					}
					if !sameItems(a, want) || !sameItems(b, want) {
						t.Errorf("query %d: cached/plain results diverge from oracle", i)
					}
				}
			})
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
			ps, cs := plain.Stats(), cached.Stats()
			if cs.CacheHits+cs.CacheVerifiedHits == 0 {
				t.Error("node cache never hit")
			}
			if cs.NodesFetched >= ps.NodesFetched {
				t.Errorf("cached fetched %d nodes, plain %d — cache saved nothing",
					cs.NodesFetched, ps.NodesFetched)
			}
			if cs.CacheBytesSaved == 0 {
				t.Error("no bytes saved recorded")
			}
			t.Logf("plain fetched %d, cached fetched %d (hits=%d verified=%d saved=%dB)",
				ps.NodesFetched, cs.NodesFetched, cs.CacheHits, cs.CacheVerifiedHits, cs.CacheBytesSaved)
		})
	}
}

func TestNodeCacheCapacityZeroMatchesPlain(t *testing.T) {
	// NodeCache: 0 must reproduce the uncached client bit-for-bit: same
	// fetch counts, no cache activity, no version reads.
	for _, multi := range []bool{false, true} {
		r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
		plain := r.newClient(t, "plain", Config{Forced: MethodOffload, MultiIssue: multi})
		zero := r.newClient(t, "zero", Config{Forced: MethodOffload, MultiIssue: multi, NodeCache: 0})
		rng := rand.New(rand.NewSource(11))
		r.e.Spawn("driver", func(p *sim.Proc) {
			defer r.e.Stop()
			for i := 0; i < 25; i++ {
				q := randRect(rng, 0.05)
				if _, _, err := plain.On(p).Search(q); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := zero.On(p).Search(q); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		ps, zs := plain.Stats(), zero.Stats()
		if ps.NodesFetched != zs.NodesFetched {
			t.Errorf("multi=%v: capacity 0 fetched %d nodes, plain %d",
				multi, zs.NodesFetched, ps.NodesFetched)
		}
		if zs.VersionReads != 0 || zs.CacheHits != 0 || zs.CacheMisses != 0 || zs.CacheBytesSaved != 0 {
			t.Errorf("multi=%v: capacity 0 produced cache activity: %+v", multi, zs)
		}
	}
}

func TestNodeCacheConcurrentWriterCorrectness(t *testing.T) {
	// A server-side writer splits nodes (staged publishes open real torn
	// windows) while a cached multi-issue client searches. Every result must
	// be phantom-free, and once writes quiesce and the lease expires the
	// cached client must observe the complete tree.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000, staged: true, heartbeat: time.Millisecond})
	writer := r.newClient(t, "writer", Config{Forced: MethodFast})
	reader := r.newClient(t, "reader", Config{
		Forced: MethodOffload, MultiIssue: true,
		NodeCache: 256, HeartbeatInv: time.Millisecond,
	})
	rng := rand.New(rand.NewSource(8))
	const inserts = 400
	wg := sim.NewWaitGroup(r.e)
	wg.Add(2)
	r.e.Spawn("writer", func(p *sim.Proc) {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := writer.On(p).Insert(randRect(rng, 0.01), uint64(100000+i)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.e.Spawn("reader", func(p *sim.Proc) {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			q := randRect(rng, 0.05)
			items, _, err := reader.On(p).Search(q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			seen := map[uint64]bool{}
			for _, it := range items {
				if !q.Intersects(it.Rect) {
					t.Errorf("query %d: phantom rect %v outside %v", i, it.Rect, q)
				}
				if it.Ref >= 2000 && (it.Ref < 100000 || it.Ref >= 100000+inserts) {
					t.Errorf("query %d: phantom ref %d", i, it.Ref)
				}
				if seen[it.Ref] {
					t.Errorf("query %d: duplicate ref %d", i, it.Ref)
				}
				seen[it.Ref] = true
			}
		}
	})
	r.e.Spawn("finalizer", func(p *sim.Proc) {
		wg.Wait(p)
		// Wait out the staleness lease (one heartbeat interval) so every
		// cached node must revalidate against the post-split tree.
		p.Sleep(3 * time.Millisecond)
		items, _, err := reader.On(p).Search(geo.NewRect(0, 0, 1, 1))
		if err != nil {
			t.Error(err)
		} else if len(items) != r.tree.Len() {
			t.Errorf("post-quiesce search found %d of %d", len(items), r.tree.Len())
		}
		r.e.Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	st := reader.Stats()
	t.Logf("stale restarts: %d, torn retries: %d, hits=%d verified=%d misses=%d",
		st.StaleRestarts, st.TornRetries, st.CacheHits, st.CacheVerifiedHits, st.CacheMisses)
}

func TestMultiIssueTornExhaustionDrainsCQ(t *testing.T) {
	// Wedge one internal chunk in a permanently-torn state: the multi-issue
	// traversal must exhaust its per-chunk retry budget, surface ErrGaveUp,
	// and drain every outstanding completion so the next search cannot
	// consume a stale one. After the writer finishes, searches must recover.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000})
	c := r.newClient(t, "c0", Config{Forced: MethodOffload, MultiIssue: true, maxChunkRetries: 3})
	reg := r.tree.Region()
	q := geo.NewRect(0, 0, 1, 1)
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		// Pick a child of the root to wedge, so the failing traversal has
		// sibling reads in flight when it gives up.
		raw := make([]byte, reg.ChunkSize())
		if err := reg.ReadChunkRaw(r.tree.RootChunk(), raw); err != nil {
			t.Error(err)
			return
		}
		payload, _, err := region.DecodeChunk(raw, nil)
		if err != nil {
			t.Error(err)
			return
		}
		var root rtree.Node
		if err := rtree.DecodeNode(payload, &root, 16); err != nil {
			t.Error(err)
			return
		}
		if root.IsLeaf() || len(root.Entries) < 2 {
			t.Errorf("tree too small for the test (leaf root or %d children)", len(root.Entries))
			return
		}
		victim := int(root.Entries[0].Ref)
		if err := reg.ReadChunkRaw(victim, raw); err != nil {
			t.Error(err)
			return
		}
		victimPayload, _, err := region.DecodeChunk(raw, nil)
		if err != nil {
			t.Error(err)
			return
		}
		w, err := reg.BeginWrite(victim, victimPayload)
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, err := c.On(p).Search(q); !errors.Is(err, proto.ErrGaveUp) {
			t.Errorf("search with wedged chunk: err = %v, want ErrGaveUp", err)
		}
		if n := c.ep.DataQP.CQ().Len(); n != 0 {
			t.Errorf("CQ holds %d stale completions after aborted traversal", n)
		}
		if st := c.Stats(); st.TornRetries == 0 {
			t.Error("no torn retries recorded")
		}
		w.Finish()
		want := expected(t, r.tree, q)
		items, _, err := c.On(p).Search(q)
		if err != nil {
			t.Errorf("search after recovery: %v", err)
			return
		}
		if !sameItems(items, want) {
			t.Error("post-recovery results diverge from oracle")
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}
