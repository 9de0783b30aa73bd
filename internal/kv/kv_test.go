package kv

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
)

type rig struct {
	e    *sim.Engine
	net  *fabric.Network
	srv  *server.Server
	tree *btree.Tree
}

type rigOpts struct {
	keys      int
	heartbeat time.Duration
	staged    bool
	cores     int
}

func newRig(t testing.TB, o rigOpts) *rig {
	t.Helper()
	e := sim.New(1)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	cores := o.cores
	if cores == 0 {
		cores = 8
	}
	host := net.NewHost("server", sim.NewCPU(e, cores))
	reg, err := region.New(1<<14, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(reg, btree.Config{MaxEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < o.keys; k++ {
		if err := tree.Insert(uint64(k)*2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Engine: e, Host: host, Tree: NewStore(tree),
		Cost:              netmodel.DefaultCostModel(),
		HeartbeatInterval: o.heartbeat,
		StagedNodeWrites:  o.staged,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{e: e, net: net, srv: srv, tree: tree}
}

func (r *rig) newClient(t testing.TB, cfg ClientConfig) *Client {
	t.Helper()
	host := r.net.NewHost("client", sim.NewCPU(r.e, 4))
	ep, err := r.srv.Connect(host, r.net, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = r.e
	cfg.Host = host
	cfg.Endpoint = ep
	if cfg.Cost == (netmodel.CostModel{}) {
		cfg.Cost = netmodel.DefaultCostModel()
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServerValidation(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("empty client config should fail")
	}
}

func TestGetBothPathsAgree(t *testing.T) {
	for _, method := range []Method{MethodFast, MethodOffload} {
		r := newRig(t, rigOpts{keys: 2000})
		c := r.newClient(t, ClientConfig{Forced: method})
		r.e.Spawn("driver", func(p *sim.Proc) {
			defer r.e.Stop()
			for k := uint64(0); k < 2000; k += 97 {
				v, used, err := c.Get(p, k*2)
				if err != nil || v != k {
					t.Errorf("get %d = %d, %v", k*2, v, err)
					return
				}
				if used != method {
					t.Errorf("used %v, want %v", used, method)
				}
			}
			if _, _, err := c.Get(p, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("odd key err = %v", err)
			}
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPutDeleteRange(t *testing.T) {
	r := newRig(t, rigOpts{keys: 100})
	c := r.newClient(t, ClientConfig{Forced: MethodFast})
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		// Upsert new and existing keys.
		if err := c.Put(p, 9999, 1); err != nil {
			t.Error(err)
			return
		}
		if err := c.Put(p, 9999, 2); err != nil {
			t.Error(err)
			return
		}
		v, _, err := c.Get(p, 9999)
		if err != nil || v != 2 {
			t.Errorf("get after upsert = %d, %v", v, err)
			return
		}
		// Range over the base keys 0,2,...,198 plus 9999.
		var got []uint64
		if _, err := c.Range(p, 10, 20, func(k, _ uint64) bool {
			got = append(got, k)
			return true
		}); err != nil {
			t.Error(err)
			return
		}
		want := []uint64{10, 12, 14, 16, 18, 20}
		if len(got) != len(want) {
			t.Errorf("range got %v", got)
			return
		}
		if err := c.Delete(p, 9999); err != nil {
			t.Error(err)
			return
		}
		if err := c.Delete(p, 9999); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete err = %v", err)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Stats().Inserts != 2 || r.srv.Stats().Deletes != 2 {
		t.Errorf("server stats = %+v", r.srv.Stats())
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLargeRangeSegmented(t *testing.T) {
	r := newRig(t, rigOpts{keys: 3000})
	c := r.newClient(t, ClientConfig{Forced: MethodFast})
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		count := 0
		if _, err := c.Range(p, 0, ^uint64(0), func(uint64, uint64) bool {
			count++
			return true
		}); err != nil {
			t.Error(err)
			return
		}
		if count != 3000 {
			t.Errorf("range count = %d", count)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveKVOffloadsUnderLoad(t *testing.T) {
	r := newRig(t, rigOpts{keys: 5000, heartbeat: time.Millisecond, cores: 1})
	var clients []*Client
	for i := 0; i < 8; i++ {
		clients = append(clients, r.newClient(t, ClientConfig{
			Adaptive: true, HeartbeatInv: time.Millisecond, T: 0.5,
		}))
	}
	wg := sim.NewWaitGroup(r.e)
	for i, c := range clients {
		c := c
		seed := int64(i)
		wg.Add(1)
		r.e.Spawn("driver", func(p *sim.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 400; j++ {
				k := uint64(rng.Intn(5000)) * 2
				v, _, err := c.Get(p, k)
				if err != nil || v != k/2 {
					t.Errorf("get %d = %d, %v", k, v, err)
					return
				}
			}
		})
	}
	r.e.Spawn("stop", func(p *sim.Proc) { wg.Wait(p); r.e.Stop() })
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	var fast, off, hb uint64
	for _, c := range clients {
		st := c.Stats()
		fast += st.FastSearches
		off += st.OffloadSearches
		hb += st.HeartbeatsSeen
	}
	if hb == 0 {
		t.Fatal("no heartbeats observed")
	}
	if off == 0 || fast == 0 {
		t.Errorf("adaptive KV did not mix paths: fast=%d off=%d", fast, off)
	}
}

func TestOffloadReadsSurviveWrites(t *testing.T) {
	r := newRig(t, rigOpts{keys: 3000, staged: true})
	writer := r.newClient(t, ClientConfig{Forced: MethodFast})
	reader := r.newClient(t, ClientConfig{Forced: MethodOffload})
	wg := sim.NewWaitGroup(r.e)
	wg.Add(2)
	r.e.Spawn("writer", func(p *sim.Proc) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			if err := writer.Put(p, uint64(100_000+rng.Intn(10_000)), uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.e.Spawn("reader", func(p *sim.Proc) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(3000)) * 2
			v, _, err := reader.Get(p, k)
			if err != nil || v != k/2 {
				t.Errorf("get %d = %d, %v", k, v, err)
				return
			}
		}
	})
	r.e.Spawn("stop", func(p *sim.Proc) { wg.Wait(p); r.e.Stop() })
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("torn retries: %d, stale restarts: %d",
		reader.Stats().TornRetries, reader.Stats().StaleRestarts)
}

func TestRangeOffloadPath(t *testing.T) {
	r := newRig(t, rigOpts{keys: 500})
	c := r.newClient(t, ClientConfig{Forced: MethodOffload})
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		var got []uint64
		m, err := c.Range(p, 100, 140, func(k, v uint64) bool {
			if v != k/2 {
				t.Errorf("range pair %d = %d", k, v)
			}
			got = append(got, k)
			return true
		})
		if err != nil || m != MethodOffload {
			t.Errorf("range err=%v method=%v", err, m)
			return
		}
		if len(got) != 21 { // even keys 100..140
			t.Errorf("range got %d keys: %v", len(got), got)
		}
		// Early stop through the offload path.
		count := 0
		if _, err := c.Range(p, 0, 1000, func(uint64, uint64) bool {
			count++
			return count < 3
		}); err != nil {
			t.Error(err)
		}
		if count != 3 {
			t.Errorf("early stop count = %d", count)
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOffloadMoveRightUnderSplits: a fast-messaging writer inserts the odd
// keys between the preloaded even keys — splitting leaves, every node publish
// staged across a torn-read window — while offloaded readers get preloaded
// keys and scan ranges next to the key being inserted, in the leaf the insert
// may split. A reader that descends through a parent the split has not
// updated yet lands left of its key and must move right (B-link), so every
// get of a preloaded key returns its value, and every range is strictly
// ascending and holds every preloaded key in it with its value.
func TestOffloadMoveRightUnderSplits(t *testing.T) {
	const keys = 3000 // preloaded: k*2 -> k, in random order so leaves fill unevenly
	r := newRig(t, rigOpts{staged: true})
	for _, k := range rand.New(rand.NewSource(3)).Perm(keys) {
		if err := r.tree.Insert(uint64(k)*2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	writer := r.newClient(t, ClientConfig{Forced: MethodFast})
	var readers []*Client
	for range 4 {
		readers = append(readers, r.newClient(t, ClientConfig{Forced: MethodOffload}))
	}
	chunks := r.tree.Region().Allocated()
	writing, hot := true, 0 // hot: the preloaded key below the insert in flight
	wg := sim.NewWaitGroup(r.e)
	wg.Add(1 + len(readers))
	r.e.Spawn("writer", func(p *sim.Proc) {
		defer wg.Done()
		defer func() { writing = false }()
		for _, k := range rand.New(rand.NewSource(1)).Perm(keys) {
			hot = k
			if err := writer.Put(p, uint64(k)*2+1, 1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	gets, scans := 0, 0
	for i, c := range readers {
		r.e.Spawn("reader", func(p *sim.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 2))
			near := func() int { return min(max(hot+rng.Intn(33)-16, 0), keys-1) }
			for writing {
				k := uint64(near()) * 2
				if v, _, err := c.Get(p, k); err != nil || v != k/2 {
					t.Errorf("get %d = %d, %v; want %d", k, v, err, k/2)
					return
				}
				gets++
				from := uint64(near()) * 2
				to := from + uint64(rng.Intn(64))
				var got []uint64
				if _, err := c.Range(p, from, to, func(k, v uint64) bool {
					if len(got) > 0 && k <= got[len(got)-1] {
						t.Errorf("range [%d, %d]: %d after %d", from, to, k, got[len(got)-1])
					}
					if k%2 == 0 && v != k/2 {
						t.Errorf("range [%d, %d]: %d = %d", from, to, k, v)
					}
					got = append(got, k)
					return true
				}); err != nil {
					t.Errorf("range [%d, %d]: %v", from, to, err)
					return
				}
				if even, want := countEven(got), int(min(to, 2*keys-1)/2-from/2+1); even != want {
					t.Errorf("range [%d, %d]: %d preloaded keys, want %d", from, to, even, want)
					return
				}
				scans++
			}
		})
	}
	r.e.Spawn("stop", func(p *sim.Proc) { wg.Wait(p); r.e.Stop() })
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if grown := r.tree.Region().Allocated() - chunks; grown < keys/32 {
		t.Errorf("the writer added %d nodes: too few leaf splits to test move-right", grown)
	}
	st := readers[0].Stats()
	t.Logf("%d gets, %d scans beside %d inserts that added %d nodes; reader 0: %d torn retries, %d stale restarts",
		gets, scans, keys, r.tree.Region().Allocated()-chunks, st.TornRetries, st.StaleRestarts)
}

func countEven(keys []uint64) int {
	n := 0
	for _, k := range keys {
		if k%2 == 0 {
			n++
		}
	}
	return n
}
