package client

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// rig is a one-server test cluster.
type rig struct {
	e    *sim.Engine
	net  *fabric.Network
	srv  *server.Server
	tree *rtree.Tree
	host *fabric.Host // server host
}

type rigOpts struct {
	mode        server.Mode
	heartbeat   time.Duration
	staged      bool
	items       int
	tcpNet      bool
	cores       int // server cores (default 28)
	mergeSpan   int // fabric merge span (0 = merging off)
	fetchSlots  int // result-mailbox slots (0 = fetch disabled)
	fetchInline int // inline threshold in items (0 = server default)
}

func newRig(t testing.TB, o rigOpts) *rig {
	t.Helper()
	e := sim.New(1)
	prof := netmodel.InfiniBand100G
	if o.tcpNet {
		prof = netmodel.Ethernet1G
	}
	prof.MergeSpan = o.mergeSpan
	net := fabric.NewNetwork(e, prof)
	cores := o.cores
	if cores == 0 {
		cores = 28
	}
	serverCPU := sim.NewCPU(e, cores)
	host := net.NewHost("server", serverCPU)
	reg, err := region.New(1<<14, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if o.items > 0 {
		rng := rand.New(rand.NewSource(7))
		items := make([]rtree.Entry, o.items)
		for i := range items {
			items[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
		}
		if err := tree.BulkLoad(items, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := server.Config{
		Engine:            e,
		Host:              host,
		Tree:              tree,
		Cost:              netmodel.DefaultCostModel(),
		Mode:              o.mode,
		HeartbeatInterval: o.heartbeat,
		StagedNodeWrites:  o.staged,
		FetchSlots:        o.fetchSlots,
		FetchInlineMax:    o.fetchInline,
	}
	if o.mode == server.ModePolling {
		cfg.PollCPU = sim.NewPollCPU(e, 28, 5*time.Microsecond)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{e: e, net: net, srv: srv, tree: tree, host: host}
}

func randRect(rng *rand.Rand, maxEdge float64) geo.Rect {
	w, h := rng.Float64()*maxEdge, rng.Float64()*maxEdge
	x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
	return geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h}
}

// newClient attaches an RDMA client to the rig.
func (r *rig) newClient(t testing.TB, name string, cfg Config) *Client {
	t.Helper()
	clientCPU := sim.NewCPU(r.e, 4)
	host := r.net.NewHost(name, clientCPU)
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
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTCPClient attaches a TCP client.
func (r *rig) newTCPClient(t testing.TB, name string) *Client {
	t.Helper()
	host := r.net.NewHost(name, sim.NewCPU(r.e, 4))
	ep, err := r.srv.ConnectTCP(host, r.net)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Engine: r.e, Host: host, Endpoint: ep, Cost: netmodel.DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// expected returns the brute-force result refs for q.
func expected(t testing.TB, tree *rtree.Tree, q geo.Rect) map[uint64]int {
	t.Helper()
	got, _, err := tree.SearchCollect(q)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64]int{}
	for _, e := range got {
		out[e.Ref]++
	}
	return out
}

func sameItems(items []wire.Item, want map[uint64]int) bool {
	if len(items) != lenTotal(want) {
		return false
	}
	got := map[uint64]int{}
	for _, it := range items {
		got[it.Ref]++
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

func lenTotal(m map[uint64]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestSearchMethodsAgree(t *testing.T) {
	for _, method := range []Method{MethodFast, MethodOffload} {
		for _, multi := range []bool{false, true} {
			if method == MethodFast && multi {
				continue
			}
			name := method.String()
			if multi {
				name += "-multi"
			}
			t.Run(name, func(t *testing.T) {
				r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
				c := r.newClient(t, "c0", Config{Forced: method, MultiIssue: multi})
				rng := rand.New(rand.NewSource(3))
				r.e.Spawn("driver", func(p *sim.Proc) {
					for i := 0; i < 40; i++ {
						q := randRect(rng, rng.Float64()*0.2)
						want := expected(t, r.tree, q)
						items, used, err := c.On(p).Search(q)
						if err != nil {
							t.Errorf("query %d: %v", i, err)
							return
						}
						if used != method {
							t.Errorf("used %v, want %v", used, method)
						}
						if !sameItems(items, want) {
							t.Errorf("query %d: %d items, want %d", i, len(items), lenTotal(want))
						}
					}
					p.Engine().Stop()
				})
				if err := r.e.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestSearchTCPAgrees(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000, tcpNet: true})
	c := r.newTCPClient(t, "c0")
	rng := rand.New(rand.NewSource(4))
	r.e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			q := randRect(rng, rng.Float64()*0.3)
			want := expected(t, r.tree, q)
			items, used, err := c.On(p).Search(q)
			if err != nil {
				t.Error(err)
				return
			}
			if used != MethodTCP {
				t.Errorf("used %v", used)
			}
			if !sameItems(items, want) {
				t.Errorf("query %d mismatch", i)
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeResponseSegmented(t *testing.T) {
	// A whole-space query on 5000 items needs many CONT segments.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
	c := r.newClient(t, "c0", Config{Forced: MethodFast})
	r.e.Spawn("driver", func(p *sim.Proc) {
		items, _, err := c.On(p).Search(geo.NewRect(0, 0, 1, 1))
		if err != nil {
			t.Error(err)
		}
		if len(items) != 5000 {
			t.Errorf("got %d items, want 5000", len(items))
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Stats().Segments < 10 {
		t.Errorf("segments = %d, expected many for a 5000-item response", r.srv.Stats().Segments)
	}
}

func TestInsertDeleteThroughMessaging(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 100})
	c := r.newClient(t, "c0", Config{Forced: MethodFast})
	target := geo.NewRect(0.40, 0.40, 0.41, 0.41)
	r.e.Spawn("driver", func(p *sim.Proc) {
		if err := c.On(p).Insert(target, 999999); err != nil {
			t.Error(err)
			return
		}
		items, _, err := c.On(p).Search(target)
		if err != nil {
			t.Error(err)
			return
		}
		found := false
		for _, it := range items {
			if it.Ref == 999999 {
				found = true
			}
		}
		if !found {
			t.Error("inserted item not found")
		}
		if err := c.On(p).Delete(target, 999999); err != nil {
			t.Error(err)
		}
		if err := c.On(p).Delete(target, 999999); !errors.Is(err, ErrNotFound) {
			t.Errorf("second delete err = %v, want ErrNotFound", err)
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPollingModeServes(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModePolling, items: 1000})
	c := r.newClient(t, "c0", Config{Forced: MethodFast})
	rng := rand.New(rand.NewSource(5))
	r.e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			q := randRect(rng, 0.1)
			want := expected(t, r.tree, q)
			items, _, err := c.On(p).Search(q)
			if err != nil {
				t.Error(err)
				return
			}
			if !sameItems(items, want) {
				t.Errorf("query %d mismatch", i)
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSwitchesUnderLoad(t *testing.T) {
	// Saturate a tiny event-mode server; adaptive clients must start
	// offloading after heartbeats report high utilization.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 3000, heartbeat: time.Millisecond, cores: 1})
	var clients []*Client
	for i := 0; i < 8; i++ {
		clients = append(clients, r.newClient(t, "c", Config{
			Adaptive:     true,
			MultiIssue:   true,
			HeartbeatInv: time.Millisecond,
			T:            0.5,
		}))
	}
	rng := rand.New(rand.NewSource(6))
	wg := sim.NewWaitGroup(r.e)
	for i, c := range clients {
		c := c
		seed := int64(i)
		wg.Add(1)
		r.e.Spawn("driver", func(p *sim.Proc) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(seed))
			_ = lrng
			for j := 0; j < 300; j++ {
				q := randRect(rng, 0.001)
				if _, _, err := c.On(p).Search(q); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.e.Spawn("stopper", func(p *sim.Proc) {
		wg.Wait(p)
		p.Engine().Stop()
	})
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
	if off == 0 {
		t.Errorf("adaptive clients never offloaded (fast=%d)", fast)
	}
	if fast == 0 {
		t.Errorf("adaptive clients never used fast messaging (off=%d)", off)
	}
}

func TestOffloadTornReadRetryUnderInserts(t *testing.T) {
	// Staged node writes open real torn windows; a hammering offload
	// client must retry versions yet always return consistent results.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000, staged: true})
	writer := r.newClient(t, "writer", Config{Forced: MethodFast})
	reader := r.newClient(t, "reader", Config{Forced: MethodOffload, MultiIssue: true})
	rng := rand.New(rand.NewSource(8))
	wg := sim.NewWaitGroup(r.e)
	wg.Add(2)
	r.e.Spawn("writer", func(p *sim.Proc) {
		defer wg.Done()
		for i := 0; i < 400; i++ {
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
			for _, it := range items {
				if !q.Intersects(it.Rect) {
					t.Errorf("result %v does not intersect query %v", it.Rect, q)
				}
			}
		}
	})
	r.e.Spawn("stopper", func(p *sim.Proc) {
		wg.Wait(p)
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	t.Logf("torn retries: %d, stale restarts: %d",
		reader.Stats().TornRetries, reader.Stats().StaleRestarts)
}

func TestMultiIssueFasterThanSingle(t *testing.T) {
	// On a broad query touching many subtrees, multi-issue must finish in
	// less virtual time than single-issue (§IV-C).
	measure := func(multi bool) time.Duration {
		r := newRig(t, rigOpts{mode: server.ModeEvent, items: 8000})
		c := r.newClient(t, "c0", Config{Forced: MethodOffload, MultiIssue: multi})
		var elapsed time.Duration
		r.e.Spawn("driver", func(p *sim.Proc) {
			q := geo.NewRect(0.2, 0.2, 0.6, 0.6)
			start := p.Now()
			if _, _, err := c.On(p).Search(q); err != nil {
				t.Error(err)
			}
			elapsed = p.Now() - start
			p.Engine().Stop()
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	single := measure(false)
	multi := measure(true)
	if multi >= single {
		t.Errorf("multi-issue %v not faster than single-issue %v", multi, single)
	}
	t.Logf("single=%v multi=%v speedup=%.2fx", single, multi, float64(single)/float64(multi))
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
}

func TestMethodString(t *testing.T) {
	if MethodFast.String() != "fast" || MethodOffload.String() != "offload" ||
		MethodTCP.String() != "tcp" || Method(9).String() == "" {
		t.Error("Method.String broken")
	}
}

func TestOffloadAfterTreeGrowth(t *testing.T) {
	// The root chunk is stable; an offload client created before inserts
	// grow the tree must still search correctly afterwards.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 0})
	writer := r.newClient(t, "writer", Config{Forced: MethodFast})
	reader := r.newClient(t, "reader", Config{Forced: MethodOffload, MultiIssue: true})
	rng := rand.New(rand.NewSource(9))
	r.e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			if err := writer.On(p).Insert(randRect(rng, 0.02), uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
		q := geo.NewRect(0, 0, 1, 1)
		items, _, err := reader.On(p).Search(q)
		if err != nil {
			t.Error(err)
			return
		}
		if len(items) != 500 {
			t.Errorf("found %d of 500 after growth", len(items))
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.tree.Height() < 2 {
		t.Fatalf("tree did not grow (height %d)", r.tree.Height())
	}
}

var _ = region.ErrTornRead // keep import for documentation cross-reference
