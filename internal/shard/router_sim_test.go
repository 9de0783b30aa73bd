package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// simTransport names one (transport, method) combination under test.
type simTransport struct {
	name       string
	tcp        bool
	mode       server.Mode
	forced     client.Method
	multiIssue bool
}

var simTransports = []simTransport{
	{name: "ring-fast", mode: server.ModeEvent, forced: client.MethodFast},
	{name: "ring-offload-multi", mode: server.ModePolling, forced: client.MethodOffload, multiIssue: true},
	{name: "tcp", tcp: true, mode: server.ModeEvent, forced: client.MethodTCP},
}

// simDeploy is a K-shard simulated deployment plus its router.
type simDeploy struct {
	e       *sim.Engine
	servers []*server.Server
	router  *Router
}

// buildSimDeploy assembles K sharded servers over the simulated fabric and
// one router driving them. K=1 still routes (trivially) through the map.
func buildSimDeploy(t *testing.T, data []rtree.Entry, k int, tr simTransport, hbInv time.Duration, healthMultiple int) *simDeploy {
	t.Helper()
	m, err := Build(data, Config{K: k, MaxInsertEdge: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	assign := m.Assign(data)

	e := sim.New(42)
	profile := netmodel.InfiniBand100G
	if tr.tcp {
		profile = netmodel.Ethernet40G
	}
	net := fabric.NewNetwork(e, profile)
	cost := netmodel.DefaultCostModel()
	clientHost := net.NewHost("client-host", sim.NewCPU(e, 8))

	d := &simDeploy{e: e}
	clients := make([]*client.Client, k)
	for s := 0; s < k; s++ {
		cpu := sim.NewCPU(e, 8)
		host := net.NewHost(fmt.Sprintf("shard-%d", s), cpu)
		reg, err := region.New(1<<13, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(assign[s]) > 0 {
			cp := append([]rtree.Entry(nil), assign[s]...)
			if err := tree.BulkLoad(cp, 0); err != nil {
				t.Fatal(err)
			}
		}
		scfg := server.Config{
			Engine:            e,
			Host:              host,
			Tree:              tree,
			Cost:              cost,
			Mode:              tr.mode,
			RingSize:          64 << 10,
			HeartbeatInterval: hbInv,
		}
		if tr.mode == server.ModePolling {
			scfg.PollCPU = sim.NewPollCPU(e, 8, cost.PollSlice)
		}
		srv, err := server.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		d.servers = append(d.servers, srv)

		ccfg := client.Config{
			Engine:       e,
			Host:         clientHost,
			Cost:         cost,
			Forced:       tr.forced,
			MultiIssue:   tr.multiIssue,
			HeartbeatInv: hbInv,
		}
		if tr.tcp {
			ep, err := srv.ConnectTCP(clientHost, net)
			if err != nil {
				t.Fatal(err)
			}
			ccfg.Endpoint = ep
		} else {
			ep, err := srv.Connect(clientHost, net, 16)
			if err != nil {
				t.Fatal(err)
			}
			ccfg.Endpoint = ep
		}
		clients[s], err = client.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	d.router, err = NewRouter(RouterConfig{
		Engine:            e,
		Map:               m,
		Clients:           clients,
		HeartbeatInterval: hbInv,
		HealthMultiple:    healthMultiple,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Randomized mixed workloads: searches interleaved with inserts and
// deletes, generated ahead of execution so the same script drives every
// deployment shape.
const (
	opSearch = iota
	opInsert
	opDelete
)

type scriptOp struct {
	kind int
	rect geo.Rect
	ref  uint64
}

func genScript(data []rtree.Entry, n int, seed int64) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	live := append([]rtree.Entry(nil), data...)
	nextRef := uint64(len(data)) + 1<<20
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.6:
			ops = append(ops, scriptOp{kind: opSearch, rect: randRect(rng, 0.08)})
		case r < 0.8:
			e := rtree.Entry{Rect: randRect(rng, 0.002), Ref: nextRef}
			nextRef++
			live = append(live, e)
			ops = append(ops, scriptOp{kind: opInsert, rect: e.Rect, ref: e.Ref})
		default:
			j := rng.Intn(len(live))
			e := live[j]
			live = append(live[:j], live[j+1:]...)
			ops = append(ops, scriptOp{kind: opDelete, rect: e.Rect, ref: e.Ref})
		}
	}
	return ops
}

func sortedRefs(items []wire.Item) []uint64 {
	refs := make([]uint64, 0, len(items))
	for _, it := range items {
		refs = append(refs, it.Ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	return refs
}

// runScriptRouter executes the script through a sharded router and returns
// the sorted result-set refs of each search (writes recorded as nil).
func runScriptRouter(t *testing.T, d *simDeploy, script []scriptOp, batchSize int) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(script))
	var runErr error
	d.e.Spawn("script", func(p *sim.Proc) {
		defer p.Engine().Stop()
		if batchSize > 1 {
			var batch []client.BatchOp
			var idx []int
			var results []client.BatchResult
			flush := func() {
				if len(batch) == 0 {
					return
				}
				results = d.router.On(p).ExecBatch(batch, results)
				for j, res := range results {
					if res.Err != nil {
						runErr = res.Err
						return
					}
					if batch[j].Type == wire.MsgSearch {
						out[idx[j]] = sortedRefs(res.Items)
					}
				}
				batch, idx = batch[:0], idx[:0]
			}
			for i, op := range script {
				switch op.kind {
				case opInsert:
					batch = append(batch, client.BatchOp{Type: wire.MsgInsert, Rect: op.rect, Ref: op.ref})
				case opDelete:
					batch = append(batch, client.BatchOp{Type: wire.MsgDelete, Rect: op.rect, Ref: op.ref})
				default:
					batch = append(batch, client.BatchOp{Type: wire.MsgSearch, Rect: op.rect})
				}
				idx = append(idx, i)
				if len(batch) == batchSize {
					flush()
					if runErr != nil {
						return
					}
				}
			}
			flush()
			return
		}
		for i, op := range script {
			switch op.kind {
			case opInsert:
				if err := d.router.On(p).Insert(op.rect, op.ref); err != nil {
					runErr = fmt.Errorf("op %d insert: %w", i, err)
					return
				}
			case opDelete:
				if err := d.router.On(p).Delete(op.rect, op.ref); err != nil {
					runErr = fmt.Errorf("op %d delete: %w", i, err)
					return
				}
			default:
				items, _, err := d.router.On(p).Search(op.rect)
				if err != nil {
					runErr = fmt.Errorf("op %d search: %w", i, err)
					return
				}
				out[i] = sortedRefs(items)
			}
		}
	})
	if err := d.e.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// groundTruth replays the script against a plain linear scan.
func groundTruth(data []rtree.Entry, script []scriptOp) [][]uint64 {
	live := append([]rtree.Entry(nil), data...)
	out := make([][]uint64, len(script))
	for i, op := range script {
		switch op.kind {
		case opInsert:
			live = append(live, rtree.Entry{Rect: op.rect, Ref: op.ref})
		case opDelete:
			for j, e := range live {
				if e.Ref == op.ref && e.Rect == op.rect {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		default:
			var items []wire.Item
			for _, e := range live {
				if op.rect.Intersects(e.Rect) {
					items = append(items, wire.Item{Rect: e.Rect, Ref: e.Ref})
				}
			}
			out[i] = sortedRefs(items)
		}
	}
	return out
}

func equalResults(a, b [][]uint64) (int, bool) {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return i, false
			}
		}
	}
	return 0, true
}

func TestRouterEquivalenceSim(t *testing.T) {
	// The sharded deployment must return exactly the same result sets as a
	// single-server run (K=1 routed through the trivial map) and as the
	// linear-scan ground truth, for every K and transport, under a
	// randomized mixed workload of searches, inserts, and deletes.
	data := dataset(4000, 0.002, 11)
	script := genScript(data, 400, 12)
	truth := groundTruth(data, script)
	for _, tr := range simTransports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			var single [][]uint64
			for _, k := range []int{1, 2, 4, 8} {
				d := buildSimDeploy(t, data, k, tr, 10*time.Millisecond, 0)
				got := runScriptRouter(t, d, script, 1)
				if i, ok := equalResults(truth, got); !ok {
					t.Fatalf("K=%d: search %d diverges from ground truth:\n want %v\n got  %v",
						k, i, truth[i], got[i])
				}
				if k == 1 {
					single = got
				} else if i, ok := equalResults(single, got); !ok {
					t.Fatalf("K=%d: search %d diverges from single-server run at op %d", k, i, i)
				}
			}
		})
	}
}

func TestRouterBatchedEquivalenceSim(t *testing.T) {
	// The batched scatter path (per-shard sub-containers) must agree with
	// ground truth too.
	data := dataset(3000, 0.002, 13)
	script := genScript(data, 320, 14)
	truth := groundTruth(data, script)
	for _, tr := range simTransports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			for _, k := range []int{2, 4} {
				d := buildSimDeploy(t, data, k, tr, 10*time.Millisecond, 0)
				got := runScriptRouter(t, d, script, 8)
				if i, ok := equalResults(truth, got); !ok {
					t.Fatalf("K=%d B=8: search %d diverges:\n want %v\n got  %v", k, i, truth[i], got[i])
				}
			}
		})
	}
}

// singleTargetRect finds a probe rectangle targeted at exactly the given
// shard, by scanning a grid of tiny rects over the unit square.
func singleTargetRect(m *Map, want int) (geo.Rect, bool) {
	var scratch []int
	for x := 0.05; x < 1; x += 0.05 {
		for y := 0.05; y < 1; y += 0.05 {
			r := geo.Rect{MinX: x, MaxX: x + 1e-6, MinY: y, MaxY: y + 1e-6}
			scratch = m.Targets(r, scratch)
			if len(scratch) == 1 && scratch[0] == want {
				return r, true
			}
		}
	}
	return geo.Rect{}, false
}

func TestRouterDroppedHeartbeatSim(t *testing.T) {
	// When a shard stops heartbeating, the router must (a) keep answering
	// searches from the surviving shards, (b) return empty for searches
	// whose every target is down, (c) reject writes owned by the dead shard
	// with the typed UnhealthyError, and (d) recover once heartbeats resume.
	const hbInv = 1 * time.Millisecond
	const multiple = 5 // 5ms window
	data := dataset(2000, 0.002, 15)
	for _, tr := range simTransports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			d := buildSimDeploy(t, data, 2, tr, hbInv, multiple)
			m := d.router.m
			probe1, ok := singleTargetRect(m, 1)
			if !ok {
				t.Fatal("no single-target probe rect for shard 1")
			}
			probe0, ok := singleTargetRect(m, 0)
			if !ok {
				t.Fatal("no single-target probe rect for shard 0")
			}
			wide := geo.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}
			var failure error
			check := func(cond bool, format string, args ...any) {
				if !cond && failure == nil {
					failure = fmt.Errorf(format, args...)
				}
			}
			d.e.Spawn("script", func(p *sim.Proc) {
				defer p.Engine().Stop()
				// Warm up: everything healthy.
				p.Sleep(3 * hbInv)
				items, _, err := d.router.On(p).Search(wide)
				check(err == nil && len(items) > 0, "warmup search failed: %v (%d items)", err, len(items))
				check(d.router.On(p).Healthy(1), "shard 1 should start healthy")

				// Drop shard 1's heartbeats and let the window lapse.
				d.servers[1].PauseHeartbeats(true)
				p.Sleep(time.Duration(multiple+3) * hbInv)
				check(!d.router.On(p).Healthy(1), "shard 1 should be unhealthy after %d missed heartbeats", multiple+3)
				check(d.router.On(p).Healthy(0), "shard 0 should stay healthy")

				// (a) Wide search still answers from shard 0 alone.
				items, _, err = d.router.On(p).Search(wide)
				check(err == nil && len(items) > 0, "degraded search failed: %v (%d items)", err, len(items))
				for _, it := range items {
					check(m.Owner(it.Rect) == 0, "degraded search returned shard-1 item %v", it.Rect)
				}
				// (b) A search aimed only at the dead shard returns empty.
				before := d.router.Stats().Skipped
				items, _, err = d.router.On(p).Search(probe1)
				check(err == nil && len(items) == 0, "dead-shard search: err=%v items=%d", err, len(items))
				check(d.router.Stats().Skipped == before+1, "skipped counter did not advance")

				// (c) Writes owned by the dead shard fail typed; the live
				// shard still accepts writes.
				err = d.router.On(p).Insert(probe1, 1<<40)
				check(errors.Is(err, ErrUnhealthy), "dead-shard insert error = %v, want ErrUnhealthy", err)
				var ue *UnhealthyError
				check(errors.As(err, &ue) && ue.Shard == 1, "error should carry shard index: %v", err)
				check(d.router.On(p).Insert(probe0, 1<<41) == nil, "live-shard insert should succeed")
				// Batched writes surface the same typed error.
				res := d.router.On(p).ExecBatch([]client.BatchOp{
					{Type: wire.MsgInsert, Rect: probe1, Ref: 1 << 42},
				}, nil)
				check(errors.Is(res[0].Err, ErrUnhealthy), "batched dead-shard insert error = %v", res[0].Err)

				// (d) Resume heartbeats: the next beat restores health.
				d.servers[1].PauseHeartbeats(false)
				p.Sleep(3 * hbInv)
				check(d.router.On(p).Healthy(1), "shard 1 should recover after heartbeats resume")
				check(d.router.On(p).Insert(probe1, 1<<43) == nil, "recovered-shard insert should succeed")
			})
			if err := d.e.Run(); err != nil {
				t.Fatal(err)
			}
			if failure != nil {
				t.Fatal(failure)
			}
		})
	}
}
