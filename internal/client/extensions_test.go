package client

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
)

// TestHeartbeatWords checks the transport half of Algorithm 1's mailbox
// protocol (the policy itself is tested over a fake transport in
// internal/proto): the utilization words are read from the mailbox the
// server writes, and consuming a
// heartbeat clears only the utilization word and counts it.
func TestHeartbeatWords(t *testing.T) {
	e := sim.New(1)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	host := net.NewHost("c", sim.NewCPU(e, 2))
	ep := &server.Endpoint{HeartbeatM: host.RegisterMemory(server.HeartbeatMailboxSize)}
	c, err := New(Config{Engine: e, Host: host, Endpoint: ep, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	b := ep.HeartbeatM.Bytes()
	binary.LittleEndian.PutUint64(b, math.Float64bits(0.75))
	binary.LittleEndian.PutUint64(b[8:], 42) // root version
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(0.5))
	h := port{ReadPort: c.reads, c: c}
	if cpu, tx := h.Heartbeat(); cpu != 0.75 || tx != 0.5 {
		t.Errorf("heartbeat = (%v, %v), want (0.75, 0.5)", cpu, tx)
	}
	h.ClearHeartbeat()
	if cpu, tx := h.Heartbeat(); cpu != 0 || tx != 0.5 {
		t.Errorf("after clear = (%v, %v), want (0, 0.5)", cpu, tx)
	}
	if h.RootVersion() != 42 {
		t.Errorf("clear wiped the root version word")
	}
	if n := c.Stats().HeartbeatsSeen; n != 1 {
		t.Errorf("HeartbeatsSeen = %d, want 1", n)
	}
}

func TestRootCacheSavesReads(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
	plain := r.newClient(t, "plain", Config{Forced: MethodOffload, MultiIssue: true})
	cached := r.newClient(t, "cached", Config{Forced: MethodOffload, MultiIssue: true, CacheRoot: true})
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
	if cs.RootCacheHits < searches-1 {
		t.Errorf("root cache hits = %d, want >= %d", cs.RootCacheHits, searches-1)
	}
	// The cached client reads ~height-1 levels per search: strictly fewer
	// chunk fetches overall.
	if cs.NodesFetched >= ps.NodesFetched {
		t.Errorf("cached fetched %d nodes, plain %d — cache saved nothing",
			cs.NodesFetched, ps.NodesFetched)
	}
}

func TestRootCacheInvalidatedByGrowth(t *testing.T) {
	// Grow the tree until the root splits; within one heartbeat interval
	// the cached-root client must observe the new root version, drop its
	// cache, and find everything again.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 200, heartbeat: time.Millisecond})
	writer := r.newClient(t, "writer", Config{Forced: MethodFast})
	reader := r.newClient(t, "reader", Config{
		Forced: MethodOffload, MultiIssue: true, CacheRoot: true,
		HeartbeatInv: time.Millisecond,
	})
	rng := rand.New(rand.NewSource(5))
	startHeight := r.tree.Height()
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		// Prime the cache.
		if _, _, err := reader.On(p).Search(geo.NewRect(0, 0, 1, 1)); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3000 && r.tree.Height() == startHeight; i++ {
			if err := writer.On(p).Insert(randRect(rng, 0.01), uint64(10_000+i)); err != nil {
				t.Error(err)
				return
			}
		}
		if r.tree.Height() == startHeight {
			t.Error("tree never grew; test needs more inserts")
			return
		}
		// Wait out the staleness lease (one heartbeat interval).
		p.Sleep(3 * time.Millisecond)
		items, _, err := reader.On(p).Search(geo.NewRect(0, 0, 1, 1))
		if err != nil {
			t.Error(err)
			return
		}
		if len(items) != r.tree.Len() {
			t.Errorf("post-growth search found %d of %d", len(items), r.tree.Len())
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}
