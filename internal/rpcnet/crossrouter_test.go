package rpcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	simclient "github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	simserver "github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// routed is the operation set the shard router exposes through either
// adapter: *Router over real sockets, shard.Router.On(p) on the simulated
// fabric. Both are the same shard.Core methods.
type routed interface {
	Search(q geo.Rect) ([]wire.Item, proto.Method, error)
	Insert(r geo.Rect, ref uint64) error
	Delete(r geo.Rect, ref uint64) error
	Move(from, to geo.Rect, ref uint64) error
	Nearest(k int, x, y float64) ([]rtree.Neighbor, proto.Method, error)
	ExecBatch(ops []proto.BatchOp, results []proto.BatchResult) []proto.BatchResult
	Healthy(shard int) bool
	Stats() shard.RouterStats
}

var (
	_ routed = (*Router)(nil)
	_ routed = shard.Core[*simclient.Client]{}
)

// crossDeploy is what a scripted case sees of one transport's deployment:
// the router, the map and dataset it was built from, and the faults it can
// inject. Scripts run on the router's driver — a simulation process on the
// sim, so they must not call t.Fatal; they log what they observed and
// report broken expectations through failf.
type crossDeploy struct {
	r    routed
	m    *shard.Map
	data []rtree.Entry

	pauseHeartbeats func(shard int, paused bool)
	killPrimary     func(shard int)
	// await lets (virtual or wall-clock) time pass until cond holds.
	await func(desc string, cond func() bool)

	obs      []string
	failures []string
}

// logf records one transport-independent observation; the table requires
// the two transports' logs to be identical.
func (d *crossDeploy) logf(format string, args ...any) {
	d.obs = append(d.obs, fmt.Sprintf(format, args...))
}

func (d *crossDeploy) failf(format string, args ...any) {
	d.failures = append(d.failures, fmt.Sprintf(format, args...))
}

// probe finds a tiny rect owned by, and scattered only to, the given shard.
func (d *crossDeploy) probe(want int, skip int) geo.Rect {
	const eps = 1e-6
	var scratch []int
	for x := 0.01; x < 1; x += 0.017 {
		for y := 0.01; y < 1; y += 0.017 {
			r := geo.Rect{MinX: x, MaxX: x + eps, MinY: y, MaxY: y + eps}
			scratch = d.m.Targets(r, scratch)
			if len(scratch) == 1 && scratch[0] == want && d.m.Owner(r) == want {
				if skip == 0 {
					return r
				}
				skip--
			}
		}
	}
	d.failf("no probe rect lands only on shard %d", want)
	return geo.Rect{}
}

// crossFetchSlots is the mailbox size of a deployment whose clients are
// forced to fetch.
const crossFetchSlots = 8

// runNet runs script against a real-socket deployment of the same shape;
// forced is the access method every per-shard client is pinned to.
func runNet(t *testing.T, k, replicas int, hbInv time.Duration, multiple int, forced Method, script func(*crossDeploy)) *crossDeploy {
	t.Helper()
	fetchSlots := 0
	if forced == MethodFetch {
		fetchSlots = crossFetchSlots
	}
	addrs, backups, srvs, m, data := startReplicatedDeploy(t, 1200, k, replicas, hbInv, fetchSlots)
	r, err := connectRouter(addrs, RouterConfig{HealthMultiple: multiple, Backups: backups,
		Client: ClientConfig{Forced: forced}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	d := &crossDeploy{
		r: r, m: m, data: data,
		pauseHeartbeats: func(s int, paused bool) { srvs[s][0].PauseHeartbeats(paused) },
		killPrimary:     func(s int) { srvs[s][0].Kill() },
	}
	d.await = func(desc string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				d.failf("timed out waiting for %s", desc)
				return
			}
			time.Sleep(hbInv / 2)
		}
	}
	script(d)
	return d
}

// runSim runs script against the simulated-fabric deployment built from the
// same map and dataset: one server stack per replica, backups kept in sync
// by the primary's replication core exactly as internal/cluster wires them.
func runSim(t *testing.T, m *shard.Map, data []rtree.Entry, replicas int, hbInv time.Duration, multiple int, forced Method, script func(*crossDeploy)) *crossDeploy {
	t.Helper()
	k := m.K()
	assign := m.Assign(data)
	e := sim.New(7)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	cost := netmodel.DefaultCostModel()
	clientHost := net.NewHost("client-host", sim.NewCPU(e, 8))
	servers := make([][]*simserver.Server, k)
	clients := make([][]*simclient.Client, k)
	for s := 0; s < k; s++ {
		s := s
		for b := 0; b < replicas; b++ {
			reg, err := region.New(1<<13, 4096)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
			if err != nil {
				t.Fatal(err)
			}
			if len(assign[s]) > 0 {
				if err := tree.BulkLoad(append([]rtree.Entry(nil), assign[s]...), 0); err != nil {
					t.Fatal(err)
				}
			}
			scfg := simserver.Config{
				Engine:            e,
				Host:              net.NewHost(fmt.Sprintf("shard-%d-%d", s, b), sim.NewCPU(e, 8)),
				Tree:              tree,
				Cost:              cost,
				Mode:              simserver.ModeEvent,
				RingSize:          64 << 10,
				HeartbeatInterval: hbInv,
			}
			if forced == MethodFetch {
				scfg.FetchSlots = crossFetchSlots
			}
			if replicas > 1 {
				scfg.Replica = replica.NewState(1, b == 0)
			}
			srv, err := simserver.New(scfg)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := srv.Connect(clientHost, net, 16)
			if err != nil {
				t.Fatal(err)
			}
			c, err := simclient.New(simclient.Config{
				Engine:       e,
				Host:         clientHost,
				Cost:         cost,
				Forced:       forced,
				Endpoint:     ep,
				HeartbeatInv: hbInv,
			})
			if err != nil {
				t.Fatal(err)
			}
			servers[s] = append(servers[s], srv)
			clients[s] = append(clients[s], c)
		}
		for _, b := range servers[s][1:] {
			servers[s][0].Replication().Attach(servers[s][0].Peer(b))
		}
	}
	rc := shard.RouterConfig{Engine: e, Map: m, HeartbeatInterval: hbInv, HealthMultiple: multiple}
	for s := range clients {
		rc.Clients = append(rc.Clients, clients[s][0])
		rc.Backups = append(rc.Backups, clients[s][1:])
	}
	router, err := shard.NewRouter(rc)
	if err != nil {
		t.Fatal(err)
	}
	d := &crossDeploy{
		m: m, data: data,
		pauseHeartbeats: func(s int, paused bool) { servers[s][0].PauseHeartbeats(paused) },
		killPrimary:     func(s int) { servers[s][0].Kill() },
	}
	e.Spawn("script", func(p *sim.Proc) {
		defer e.Stop()
		d.r = router.On(p)
		d.await = func(desc string, cond func() bool) {
			for i := 0; !cond(); i++ {
				if i == 1000 {
					d.failf("timed out waiting for %s", desc)
					return
				}
				p.Sleep(hbInv)
			}
		}
		// Let the first heartbeats land, as a connected TCP router has.
		p.Sleep(2 * hbInv)
		script(d)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return d
}

func refsOf(items []wire.Item) string {
	return fmt.Sprint(sortedRefSet(items))
}

// countRef counts how often ref appears in items.
func countRef(items []wire.Item, ref uint64) int {
	n := 0
	for _, it := range items {
		if it.Ref == ref {
			n++
		}
	}
	return n
}

var wholePlane = geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}

// primaryKill kills shard 0's primary: the next read is answered by the
// backup without promotion, the next write promotes it, and every
// acknowledged write — before and after — is still there.
var primaryKill = func(d *crossDeploy) {
	rng := rand.New(rand.NewSource(31))
	acked := map[uint64]bool{}
	next := uint64(1 << 20)
	write := func(batched bool) {
		rect := randRect(rng, 0.01)
		var err error
		if batched {
			err = d.r.ExecBatch([]BatchOp{{Type: wire.MsgInsert, Rect: rect, Ref: next}}, nil)[0].Err
		} else {
			err = d.r.Insert(rect, next)
		}
		if err != nil {
			d.failf("insert %d (batched=%v): %v", next, batched, err)
		}
		acked[next] = true
		next++
	}
	for i := 0; i < 40; i++ {
		write(i%4 == 3)
	}
	d.killPrimary(0)

	before := d.r.Stats()
	probe0 := d.probe(0, 0)
	_, _, err := d.r.Search(probe0)
	after := d.r.Stats()
	d.logf("read on killed primary: err %v, backup reads +%d, promotions +%d",
		err, after.BackupReads-before.BackupReads, after.Promotions-before.Promotions)

	for i := 0; i < 40; i++ {
		write(i%4 == 3)
	}
	d.logf("promotions after writes: %d, unhealthy writes: %d",
		d.r.Stats().Promotions, d.r.Stats().UnhealthyWrites)

	items, _, err := d.r.Search(wholePlane)
	if err != nil {
		d.failf("post-failover scan: %v", err)
	}
	want := len(d.data) + len(acked)
	lost := 0
	seen := map[uint64]int{}
	for _, it := range items {
		seen[it.Ref]++
	}
	for ref := range acked {
		if seen[ref] != 1 {
			lost++
		}
	}
	d.logf("post-failover scan: %d items (want %d), %d acked writes lost or duplicated", len(items), want, lost)
	if len(items) != want || lost != 0 {
		d.failf("post-failover scan: %d items, want %d; %d acked writes lost or duplicated", len(items), want, lost)
	}
}

// TestRouterCrossTransport drives the same scripted cases through both
// adapters of the one shard router — the simulated fabric and real sockets
// — over the same map and dataset, and requires (a) each case's
// expectations to hold on each transport and (b) the two transports'
// observation logs to be identical: result sets, error texts, and the
// router counters the case moves. It grew out of the unhealthy-write error
// equivalence test, whose assertions are the dropped-heartbeat case.
func TestRouterCrossTransport(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	// never is a liveness window (in heartbeat intervals) no stall of the
	// test process outlasts: the cases that are not about a lapsed window
	// must not see one because the machine was busy. Heartbeats still flow,
	// so elections still see applied sequences.
	const never = 5000
	cases := []struct {
		name     string
		k, r     int
		multiple int
		// forced pins the per-shard clients' access method (fast when zero).
		forced Method
		script func(d *crossDeploy)
	}{
		{
			// A shard that stops heartbeating is skipped by searches and
			// refuses writes with the typed unhealthy error, plain and
			// batched; it recovers when heartbeats resume.
			name: "dropped-heartbeat", k: 2, r: 1, multiple: 10,
			script: func(d *crossDeploy) {
				probe0, probe1 := d.probe(0, 0), d.probe(1, 0)
				d.await("both shards healthy", func() bool { return d.r.Healthy(0) && d.r.Healthy(1) })
				d.pauseHeartbeats(1, true)
				d.await("shard 1 unhealthy", func() bool { return !d.r.Healthy(1) })
				if !d.r.Healthy(0) {
					d.failf("shard 0 must stay healthy")
				}
				before := d.r.Stats()
				items, _, err := d.r.Search(probe1)
				d.logf("dead-shard search: %d items, err %v, skipped +%d",
					len(items), err, d.r.Stats().Skipped-before.Skipped)
				items, _, err = d.r.Search(wholePlane)
				foreign := 0
				for _, it := range items {
					if d.m.Owner(it.Rect) != 0 {
						foreign++
					}
				}
				d.logf("degraded wide search: %d items, %d not shard 0's, err %v", len(items), foreign, err)

				err = d.r.Insert(probe1, 1<<30)
				var ue *shard.UnhealthyError
				d.logf("dead-owner insert: %q is-unhealthy=%v shard=%v",
					err, errors.Is(err, shard.ErrUnhealthy), errors.As(err, &ue) && ue.Shard == 1)
				res := d.r.ExecBatch([]BatchOp{{Type: wire.MsgInsert, Rect: probe1, Ref: 1<<30 + 1}}, nil)
				d.logf("dead-owner batched insert: %q", res[0].Err)
				if got, want := fmt.Sprint(err), (&shard.UnhealthyError{Shard: 1}).Error(); got != want {
					d.failf("dead-owner insert error %q, want %q", got, want)
				}
				if !errors.Is(res[0].Err, shard.ErrUnhealthy) {
					d.failf("batched dead-owner insert error = %v", res[0].Err)
				}
				d.logf("live-owner insert: %v", d.r.Insert(probe0, 1<<30+2))
				d.logf("unhealthy writes +%d", d.r.Stats().UnhealthyWrites-before.UnhealthyWrites)

				d.pauseHeartbeats(1, false)
				d.await("shard 1 recovered", func() bool { return d.r.Healthy(1) })
				d.logf("recovered-owner insert: %v", d.r.Insert(probe1, 1<<30+3))
			},
		},
		{name: "primary-kill", k: 2, r: 2, multiple: never, script: primaryKill},
		// The same through fetch-routed reads: a killed server's refusal of a
		// SEARCH_FETCH must be the typed unavailable error, or the router
		// never tries the backup.
		{name: "primary-kill-fetch", k: 2, r: 2, multiple: never, forced: MethodFetch, script: primaryKill},
		{
			// A move across an ownership boundary inserts at the destination
			// then deletes at the source, and tolerates a source that never
			// held the entry (upsert), plain and batched.
			name: "cross-owner-move", k: 2, r: 1, multiple: never,
			script: func(d *crossDeploy) {
				from, to := d.probe(0, 0), d.probe(1, 0)
				before := d.r.Stats()
				d.logf("ghost move: %v", d.r.Move(from, to, 1<<40))
				items, _, _ := d.r.Search(to)
				d.logf("ghost at destination: %d", countRef(items, 1<<40))

				d.logf("seed insert: %v", d.r.Insert(from, 1<<41))
				d.logf("real move: %v", d.r.Move(from, to, 1<<41))
				atSrc, _, _ := d.r.Search(from)
				atDst, _, _ := d.r.Search(to)
				d.logf("moved entry: %d at source, %d at destination", countRef(atSrc, 1<<41), countRef(atDst, 1<<41))

				from2, to2 := d.probe(0, 1), d.probe(1, 1)
				res := d.r.ExecBatch([]BatchOp{
					{Type: wire.MsgInsert, Rect: from2, Ref: 1 << 42},
				}, nil)
				d.logf("batched seed insert: %v", res[0].Err)
				res = d.r.ExecBatch([]BatchOp{
					{Type: wire.MsgMove, Rect: from2, Rect2: to2, Ref: 1 << 42},
					{Type: wire.MsgMove, Rect: from2, Rect2: to2, Ref: 1 << 43}, // ghost
					{Type: wire.MsgSearch, Rect: from},
				}, res)
				d.logf("batched moves: %v, %v; rider search %s", res[0].Err, res[1].Err, refsOf(res[2].Items))
				atSrc, _, _ = d.r.Search(from2)
				atDst, _, _ = d.r.Search(to2)
				d.logf("batch-moved entry: %d at source, %d+%d at destination",
					countRef(atSrc, 1<<42), countRef(atDst, 1<<42), countRef(atDst, 1<<43))
				after := d.r.Stats()
				d.logf("moves +%d, writes +%d", after.Moves-before.Moves, after.Writes-before.Writes)
				for _, line := range d.obs {
					if strings.Contains(line, "not found") {
						d.failf("a cross-owner move surfaced ErrNotFound: %s", line)
					}
				}
			},
		},
		{
			// A batched kNN fans out to every shard and reduces the per-shard
			// k-bests to the global one; it must equal the single-op
			// best-first gather and a local tree over the whole dataset.
			name: "batched-knn", k: 3, r: 1, multiple: never,
			script: func(d *crossDeploy) {
				reg, err := region.New(1<<14, 4096)
				if err != nil {
					d.failf("%v", err)
					return
				}
				ref, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
				if err == nil {
					err = ref.BulkLoad(append([]rtree.Entry(nil), d.data...), 0)
				}
				if err != nil {
					d.failf("%v", err)
					return
				}
				rng := rand.New(rand.NewSource(19))
				ops := make([]BatchOp, 6)
				for i := range ops {
					ops[i] = BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(rng.Float64(), rng.Float64()), Ref: uint64([]int{1, 5, 32}[i%3])}
				}
				before := d.r.Stats()
				results := d.r.ExecBatch(ops, nil)
				after := d.r.Stats()
				d.logf("knns +%d, fanout +%d", after.KNNs-before.KNNs, after.Fanout-before.Fanout)
				for i, res := range results {
					x, y := ops[i].Rect.Center()
					want, _, _ := ref.Nearest(int(ops[i].Ref), x, y)
					single, m, serr := d.r.Nearest(int(ops[i].Ref), x, y)
					d.logf("knn %d (k=%d): batched %s err %v; single method %v err %v",
						i, ops[i].Ref, refsOf(res.Items), res.Err, m, serr)
					if !reflect.DeepEqual(res.Items, proto.ItemsOfNeighbors(want)) {
						d.failf("knn %d: batched k-best %v diverges from the local tree's %v", i, res.Items, want)
					}
					if !reflect.DeepEqual(single, want) {
						d.failf("knn %d: best-first gather %v diverges from the local tree's %v", i, single, want)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			forced := tc.forced
			if forced == 0 {
				forced = MethodFast
			}
			net := runNet(t, tc.k, tc.r, hbInv, tc.multiple, forced, tc.script)
			simd := runSim(t, net.m, net.data, tc.r, hbInv, tc.multiple, forced, tc.script)
			for _, d := range []struct {
				transport string
				d         *crossDeploy
			}{{"net", net}, {"sim", simd}} {
				for _, f := range d.d.failures {
					t.Errorf("%s: %s", d.transport, f)
				}
			}
			if !reflect.DeepEqual(net.obs, simd.obs) {
				t.Errorf("transports observed different behaviour:\n net: %s\n sim: %s",
					strings.Join(net.obs, "\n      "), strings.Join(simd.obs, "\n      "))
			}
			if t.Failed() {
				t.Logf("net log:\n  %s", strings.Join(net.obs, "\n  "))
			}
		})
	}
}
