package telemetry_test

import (
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
)

// parityWorkload is a fixed, deterministic operation sequence both
// transports replay: searches, then inserts, then deletes of the inserted
// rectangles.
type parityWorkload struct {
	items   []rtree.Entry
	queries []geo.Rect
	writes  []geo.Rect
}

func newParityWorkload() parityWorkload {
	rng := rand.New(rand.NewSource(42))
	rect := func(maxEdge float64) geo.Rect {
		w, h := rng.Float64()*maxEdge, rng.Float64()*maxEdge
		x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
		return geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h}
	}
	var w parityWorkload
	w.items = make([]rtree.Entry, 3000)
	for i := range w.items {
		w.items[i] = rtree.Entry{Rect: rect(0.01), Ref: uint64(i)}
	}
	for i := 0; i < 40; i++ {
		w.queries = append(w.queries, rect(0.05))
	}
	for i := 0; i < 10; i++ {
		w.writes = append(w.writes, rect(1e-5))
	}
	return w
}

func (w parityWorkload) buildTree(t *testing.T) *rtree.Tree {
	t.Helper()
	reg, err := region.New(1<<14, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	data := append([]rtree.Entry(nil), w.items...)
	if err := tree.BulkLoad(data, 0); err != nil {
		t.Fatal(err)
	}
	return tree
}

// simSnapshot replays the workload on the simulated RDMA fabric.
func (w parityWorkload) simSnapshot(t *testing.T, forced client.Method) telemetry.ClientSnapshot {
	t.Helper()
	e := sim.New(1)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	host := net.NewHost("server", sim.NewCPU(e, 28))
	srv, err := server.New(server.Config{
		Engine: e,
		Host:   host,
		Tree:   w.buildTree(t),
		Cost:   netmodel.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	chost := net.NewHost("client", sim.NewCPU(e, 4))
	ep, err := srv.Connect(chost, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.Config{
		Engine:   e,
		Host:     chost,
		Endpoint: ep,
		Cost:     netmodel.DefaultCostModel(),
		Forced:   forced,
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	e.Spawn("driver", func(p *sim.Proc) {
		defer p.Engine().Stop()
		for _, q := range w.queries {
			if _, _, err := c.On(p).Search(q); err != nil {
				runErr = err
				return
			}
		}
		for i, r := range w.writes {
			if err := c.On(p).Insert(r, uint64(1_000_000+i)); err != nil {
				runErr = err
				return
			}
		}
		for i, r := range w.writes {
			if err := c.On(p).Delete(r, uint64(1_000_000+i)); err != nil {
				runErr = err
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return c.Stats()
}

// tcpSnapshot replays the workload over real localhost TCP.
func (w parityWorkload) tcpSnapshot(t *testing.T, forced rpcnet.Method) telemetry.ClientSnapshot {
	t.Helper()
	srv, err := rpcnet.Listen("127.0.0.1:0", w.buildTree(t), rpcnet.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // returns on Close
	defer srv.Close()
	c, err := rpcnet.Connect([]string{srv.Addr().String()}, rpcnet.WithForced(forced))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range w.queries {
		if _, _, err := c.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range w.writes {
		if err := c.Insert(r, uint64(1_000_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range w.writes {
		if err := c.Delete(r, uint64(1_000_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return c.Snapshot()
}

// TestTransportSnapshotParity asserts the acceptance criterion of the
// unified snapshot: the simulated fabric and the real-TCP transport populate
// identical ClientSnapshot fields for the same workload. Timing-dependent
// counters (heartbeats) are excluded; everything the workload determines
// must match exactly.
func TestTransportSnapshotParity(t *testing.T) {
	w := newParityWorkload()

	t.Run("fast", func(t *testing.T) {
		simS := w.simSnapshot(t, client.MethodFast)
		tcpS := w.tcpSnapshot(t, rpcnet.MethodFast)
		assertParity(t, simS, tcpS)
		if simS.FastSearches != uint64(len(w.queries)) {
			t.Errorf("fast searches = %d, want %d", simS.FastSearches, len(w.queries))
		}
		if simS.NodesFetched != 0 || tcpS.NodesFetched != 0 {
			t.Errorf("fast path fetched nodes: sim=%d tcp=%d", simS.NodesFetched, tcpS.NodesFetched)
		}
	})

	t.Run("offload", func(t *testing.T) {
		simS := w.simSnapshot(t, client.MethodOffload)
		tcpS := w.tcpSnapshot(t, rpcnet.MethodOffload)
		assertParity(t, simS, tcpS)
		if simS.OffloadSearches != uint64(len(w.queries)) {
			t.Errorf("offload searches = %d, want %d", simS.OffloadSearches, len(w.queries))
		}
		if simS.NodesFetched == 0 || tcpS.NodesFetched == 0 {
			t.Errorf("offload path fetched no nodes: sim=%d tcp=%d", simS.NodesFetched, tcpS.NodesFetched)
		}
	})
}

// assertParity compares every workload-determined snapshot field. The two
// transports traverse identical trees with identical queries, so even the
// chunk-read counts must agree.
func assertParity(t *testing.T, sim, tcp telemetry.ClientSnapshot) {
	t.Helper()
	cmp := []struct {
		name     string
		sim, tcp uint64
	}{
		{"FastSearches", sim.FastSearches, tcp.FastSearches},
		{"OffloadSearches", sim.OffloadSearches, tcp.OffloadSearches},
		{"TCPSearches", sim.TCPSearches, tcp.TCPSearches},
		{"Inserts", sim.Inserts, tcp.Inserts},
		{"Deletes", sim.Deletes, tcp.Deletes},
		{"TornRetries", sim.TornRetries, tcp.TornRetries},
		{"StaleRestarts", sim.StaleRestarts, tcp.StaleRestarts},
		{"NodesFetched", sim.NodesFetched, tcp.NodesFetched},
		{"VersionReads", sim.VersionReads, tcp.VersionReads},
		{"CacheHits", sim.CacheHits, tcp.CacheHits},
		{"CacheMisses", sim.CacheMisses, tcp.CacheMisses},
		{"BatchesSent", sim.BatchesSent, tcp.BatchesSent},
		{"BatchedOps", sim.BatchedOps, tcp.BatchedOps},
	}
	for _, c := range cmp {
		if c.sim != c.tcp {
			t.Errorf("%s: sim=%d tcp=%d", c.name, c.sim, c.tcp)
		}
	}
}
