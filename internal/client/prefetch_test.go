package client

import (
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
)

// driveSearches runs n random searches against every client, asserting each
// result against the oracle, and returns only after the engine drains.
func driveSearches(t *testing.T, r *rig, n int, scale float64, seed int64, cls ...*Client) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		for i := 0; i < n; i++ {
			q := randRect(rng, scale)
			want := expected(t, r.tree, q)
			for ci, cl := range cls {
				got, _, err := cl.On(p).Search(q)
				if err != nil {
					t.Errorf("query %d client %d: %v", i, ci, err)
					return
				}
				if !sameItems(got, want) {
					t.Errorf("query %d client %d: results diverge from oracle", i, ci)
					return
				}
			}
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMergedReadsReduceWQEs: with a widened merge span the same workload
// posts measurably fewer work requests — sibling leaves laid out adjacently
// by the preorder bulk loader coalesce — while demand chunk reads and
// results stay identical to the unmerged run.
func TestMergedReadsReduceWQEs(t *testing.T) {
	run := func(span int) (uint64, uint64) {
		r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000, mergeSpan: span})
		cl := r.newClient(t, "c", Config{Forced: MethodOffload, MultiIssue: true})
		driveSearches(t, r, 40, 0.05, 3, cl)
		s := cl.Stats()
		return s.NodesFetched, s.ReadWQEs
	}
	plainReads, plainWQEs := run(0)
	mergedReads, mergedWQEs := run(8)
	if mergedReads != plainReads {
		t.Errorf("merging changed demand reads: %d vs %d", mergedReads, plainReads)
	}
	if mergedWQEs >= plainWQEs {
		t.Errorf("merge span 8 posted %d WQEs, unmerged %d — no coalescing", mergedWQEs, plainWQEs)
	}
	t.Logf("reads=%d  wqes: unmerged=%d merged=%d (ratio %.2f)",
		plainReads, plainWQEs, mergedWQEs, float64(mergedReads)/float64(mergedWQEs))
}

// TestMergeSpanOneMatchesBaseline: span 1 must leave the read path
// bit-for-bit identical to span 0 (the client skips the pre-post sort and
// the fabric never coalesces).
func TestMergeSpanOneMatchesBaseline(t *testing.T) {
	run := func(span int) (uint64, uint64) {
		r := newRig(t, rigOpts{mode: server.ModeEvent, items: 3000, mergeSpan: span})
		cl := r.newClient(t, "c", Config{Forced: MethodOffload, MultiIssue: true, NodeCache: 64})
		driveSearches(t, r, 25, 0.05, 7, cl)
		s := cl.Stats()
		return s.NodesFetched, s.ReadWQEs
	}
	reads0, wqes0 := run(0)
	reads1, wqes1 := run(1)
	if reads0 != reads1 || wqes0 != wqes1 {
		t.Errorf("span 1 diverged from baseline: reads %d/%d wqes %d/%d",
			reads1, reads0, wqes1, wqes0)
	}
}

// TestPrefetchSpeculationPaysOff: queries wide enough to CONTAIN level-1
// subtrees trigger containment-gated spans behind their demand reads —
// speculative reads are issued, adopted by the visits that follow, and
// the demand read count drops below an identically-configured client
// without prefetching. The cache is off so every wave demand-reads its
// internal nodes, the precondition for a span to ride one. Results stay
// oracle-exact throughout.
func TestPrefetchSpeculationPaysOff(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000, mergeSpan: 8})
	plain := r.newClient(t, "plain", Config{Forced: MethodOffload, MultiIssue: true})
	pref := r.newClient(t, "pref", Config{Forced: MethodOffload, MultiIssue: true, Prefetch: 64})
	driveSearches(t, r, 25, 0.5, 5, plain, pref)
	ps, fs := plain.Stats(), pref.Stats()
	if fs.PrefetchIssued == 0 {
		t.Fatal("no speculative reads issued")
	}
	if fs.PrefetchHits == 0 && fs.CachePrefetchHits == 0 {
		t.Error("no speculative read was ever adopted or credited")
	}
	if fs.NodesFetched >= ps.NodesFetched {
		t.Errorf("prefetching client fetched %d demand chunks, plain %d — speculation saved nothing",
			fs.NodesFetched, ps.NodesFetched)
	}
	t.Logf("issued=%d adopted=%d cache-credited=%d waste=%d+%d  demand reads %d vs %d",
		fs.PrefetchIssued, fs.PrefetchHits, fs.CachePrefetchHits,
		fs.PrefetchWaste, fs.CachePrefetchWaste, fs.NodesFetched, ps.NodesFetched)
}

// TestHintedPrefetchRidesRevalidation: when a cached internal node falls
// past its lease, the demoted copy's entries seed speculative reads for
// exactly the children the next wave will demand if the fingerprint
// confirms. With a lease far shorter than a traversal, every cached
// lookup revalidates, so hints fire constantly — and on a static tree
// every hinted chunk is adopted: hits with zero waste, and strictly fewer
// demand reads than the identically-leased client without prefetching.
func TestHintedPrefetchRidesRevalidation(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000, mergeSpan: 8})
	lease := 10 * time.Microsecond
	plain := r.newClient(t, "plain", Config{Forced: MethodOffload, MultiIssue: true,
		NodeCache: 256, HeartbeatInv: lease})
	pref := r.newClient(t, "pref", Config{Forced: MethodOffload, MultiIssue: true,
		NodeCache: 256, HeartbeatInv: lease, Prefetch: 64})
	driveSearches(t, r, 40, 0.05, 5, plain, pref)
	ps, fs := plain.Stats(), pref.Stats()
	if fs.PrefetchIssued == 0 {
		t.Fatal("no hinted speculative reads issued")
	}
	if fs.PrefetchHits == 0 {
		t.Error("no hinted read was adopted by the wave it anticipated")
	}
	if fs.PrefetchWaste != 0 {
		t.Errorf("hinted speculation wasted %d reads on a static tree; hints must "+
			"target only children the traversal will visit", fs.PrefetchWaste)
	}
	if fs.NodesFetched >= ps.NodesFetched {
		t.Errorf("hinting client fetched %d demand chunks, plain %d — hints saved nothing",
			fs.NodesFetched, ps.NodesFetched)
	}
	t.Logf("issued=%d adopted=%d  demand reads %d vs %d  version reads %d",
		fs.PrefetchIssued, fs.PrefetchHits, fs.NodesFetched, ps.NodesFetched, fs.VersionReads)
}

// TestPrefetchBudgetBounds: the token bucket caps speculation — a capacity-2
// bucket issues strictly fewer speculative reads than a capacity-64 one over
// the same workload, exhaustion mid-wave simply stops further spans, and
// correctness is unaffected either way.
func TestPrefetchBudgetBounds(t *testing.T) {
	run := func(budget int) uint64 {
		r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000, mergeSpan: 8})
		cl := r.newClient(t, "c", Config{Forced: MethodOffload, MultiIssue: true, Prefetch: budget})
		driveSearches(t, r, 25, 0.5, 9, cl)
		return cl.Stats().PrefetchIssued
	}
	small, large := run(2), run(64)
	if small == 0 {
		t.Error("capacity 2 never issued a speculative read")
	}
	if small >= large {
		t.Errorf("capacity 2 issued %d speculative reads, capacity 64 issued %d — budget not binding",
			small, large)
	}
	t.Logf("issued: budget2=%d budget64=%d", small, large)
}

// TestStaleBetweenIssueAndFlush is the regression test for the mid-wave
// cleanup in the multi-issue walk (proto): a child hitting a poisoned (wrong-level)
// cache entry aborts the wave AFTER a sibling's read was issued into the
// batch but BEFORE the batch was posted. fail() must drop the never-posted
// read instead of draining the CQ for a completion that cannot arrive, and
// the restart must then answer the query correctly.
func TestStaleBetweenIssueAndFlush(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000})
	// Decode the real root straight from the region to find its children.
	reg := r.tree.Region()
	raw := make([]byte, reg.ChunkSize())
	if err := reg.ReadChunkRaw(r.tree.RootChunk(), raw); err != nil {
		t.Fatal(err)
	}
	payload, _, err := region.DecodeChunk(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	var root rtree.Node
	if err := rtree.DecodeNode(payload, &root, r.tree.MaxEntries()); err != nil {
		t.Fatal(err)
	}
	if root.IsLeaf() || len(root.Entries) < 2 {
		t.Fatalf("need an internal root with >= 2 children, got level %d with %d entries",
			root.Level, len(root.Entries))
	}
	cl := r.newClient(t, "c", Config{Forced: MethodOffload, MultiIssue: true, NodeCache: 64})
	// Poison the SECOND child with an impossible level: the whole-space
	// query makes the wave issue child one's read first, then trip over
	// this entry while the batch is still unposted.
	victim := int(root.Entries[1].Ref)
	cl.ncache.Put(victim, &rtree.Node{Level: root.Level}, 1, 0)
	whole := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	want := expected(t, r.tree, whole)
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		got, _, err := cl.On(p).Search(whole)
		if err != nil {
			t.Error(err)
			return
		}
		if !sameItems(got, want) {
			t.Error("post-restart results diverge from oracle")
		}
		// The CQ must be clean: a second search popping a stray completion
		// from the aborted wave would corrupt or hang here.
		got, _, err = cl.On(p).Search(whole)
		if err != nil || !sameItems(got, want) {
			t.Errorf("second search after aborted wave: err=%v", err)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := cl.Stats(); s.StaleRestarts == 0 {
		t.Error("poisoned entry never triggered a restart")
	}
}
