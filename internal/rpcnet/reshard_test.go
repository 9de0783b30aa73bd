package rpcnet

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/telemetry"
)

// TestNetLiveReshard splits shard 0 through Elastic onto a freshly started
// server while a router keeps issuing requests, MOVEs across the new cell's
// boundary included: zero failed requests through the prepare, commit,
// adoption, and drain phases; the router converges to the bumped map version
// mid-run; and the final state is equivalent to the tracked ground truth.
func TestNetLiveReshard(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	addrs, srvs, m, data := startShardedDeploy(t, 2000, 2, hbInv)
	release := make(chan struct{})
	d, err := NewElastic(m, srvs, listenEmpty(t, hbInv), func(stop <-chan struct{}, _ uint64) {
		select {
		case <-release:
		case <-stop:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	r, err := connectRouter(addrs, RouterConfig{HealthMultiple: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	live := make(map[uint64]geo.Rect, len(data))
	for _, e := range data {
		live[e.Ref] = e.Rect
	}
	rng := rand.New(rand.NewSource(41))
	nextRef := uint64(1 << 20)
	move := func(ref uint64, to geo.Rect) {
		t.Helper()
		if err := r.Move(live[ref], to, ref); err != nil {
			t.Fatalf("move failed mid-reshard: %v", err)
		}
		live[ref] = to
	}
	churn := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			switch roll := rng.Float64(); {
			case roll < 0.4:
				q := randRect(rng, rng.Float64()*0.2)
				if _, _, err := r.Search(q); err != nil {
					t.Fatalf("search failed mid-reshard: %v", err)
				}
			case roll < 0.65:
				e := rtree.Entry{Rect: randRect(rng, 0.01), Ref: nextRef}
				nextRef++
				if err := r.Insert(e.Rect, e.Ref); err != nil {
					t.Fatalf("insert failed mid-reshard: %v", err)
				}
				live[e.Ref] = e.Rect
			case roll < 0.8:
				for ref, rect := range live {
					if err := r.Delete(rect, ref); err != nil {
						t.Fatalf("delete failed mid-reshard: %v", err)
					}
					delete(live, ref)
					break
				}
			default:
				for ref := range live {
					move(ref, randRect(rng, 0.01))
					break
				}
			}
		}
	}
	// crossMoves moves n entries out of cell `from` of nm into cell `to`.
	crossMoves := func(nm *shard.Map, from, to, n int) {
		t.Helper()
		for ref, rect := range live {
			if n == 0 {
				return
			}
			if nm.Owner(rect) != from {
				continue
			}
			dst := randRect(rng, 0.01)
			for nm.Owner(dst) != to {
				dst = randRect(rng, 0.01)
			}
			move(ref, dst)
			n--
		}
	}

	churn(40)

	// The split snapshots shard 0 under one latch hold, streams the peeled
	// half to an empty server, arms the dual-write and commits the grown
	// map; the drain waits for release.
	if k, err := d.Split(0); err != nil || k != 3 {
		t.Fatalf("split: K=%d, err %v", k, err)
	}
	nm, newSrv := d.Map(), d.srvs[2]
	if nm.Version == m.Version {
		t.Fatalf("successor map version %#x unchanged", nm.Version)
	}
	if got := srvs[0].Stats().ReshardMoved; got == 0 {
		t.Fatal("no entries streamed to the reshard target")
	}

	// Dual-write window: the router still runs the old map, so shard 0
	// applies every write and mirrors those landing in the peeled cell — a
	// MOVE across its boundary is one delete and one insert, of which
	// exactly one is mirrored.
	crossMoves(nm, 2, 0, 10)
	crossMoves(nm, 0, 2, 10)
	churn(40)

	// The router must converge to the bumped version mid-run, with every
	// request during the transition succeeding.
	deadline := time.Now().Add(10 * time.Second)
	for r.Map().Version != nm.Version {
		if time.Now().After(deadline) {
			t.Fatalf("router never adopted map %#x (still at %#x)", nm.Version, r.Map().Version)
		}
		churn(5)
		time.Sleep(hbInv)
	}
	if got := r.Stats().MapAdoptions; got != 1 {
		t.Errorf("map adoptions = %d, want 1", got)
	}

	// Both maps are live until the drain: scatters deduplicate the moved
	// entries, and a MOVE across the boundary is now a cross-shard one.
	crossMoves(nm, 2, 0, 5)
	crossMoves(nm, 0, 2, 5)
	churn(40)
	close(release)
	assertDrained(t, srvs[0], nm)
	churn(40)

	all := geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}
	items, _, err := r.Search(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(live) {
		t.Fatalf("final scan: %d items, want %d", len(items), len(live))
	}
	for _, it := range items {
		if rect, ok := live[it.Ref]; !ok || rect != it.Rect {
			t.Fatalf("final scan returned unexpected ref %d at %v", it.Ref, it.Rect)
		}
		delete(live, it.Ref)
	}
	if len(live) != 0 {
		t.Fatalf("%d live entries missing after reshard", len(live))
	}

	// The new shard actually serves its cell: a probe owned by the new cell
	// answers from the new server.
	if newSrv.Stats().Searches+newSrv.Stats().Inserts == 0 {
		t.Error("reshard target never served a request")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("drain or close: %v", err)
	}
}

// listenEmpty starts the empty server a split grows into.
func listenEmpty(t *testing.T, hbInv time.Duration) func() (*Server, error) {
	return func() (*Server, error) {
		srv, _ := startServer(t, 0, ServerConfig{HeartbeatInterval: hbInv})
		return srv, nil
	}
}

// waitDrained waits for srv's split to drain.
func waitDrained(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.reshardPhase.Load() != reshardIdle {
		if time.Now().After(deadline) {
			t.Fatal("split never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// assertDrained waits for srv's split to drain and checks the drain took
// effect: srv, the split shard, keeps no entry the new cell of nm owns.
func assertDrained(t *testing.T, srv *Server, nm *shard.Map) {
	t.Helper()
	waitDrained(t, srv)
	items, _, err := dial(t, srv, ClientConfig{}).Search(geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if nm.Owner(it.Rect) == nm.K()-1 {
			t.Fatalf("drained shard still holds ref %d of the new cell", it.Ref)
		}
	}
}

// TestNetShardMapIntegrity covers the rejection paths of the versioned,
// checksummed map: a corrupt-checksum map fails the connect, and a served
// map that is not a strict successor (same cell count, different version)
// is never adopted mid-run.
func TestNetShardMapIntegrity(t *testing.T) {
	buildData := func(seed int64) ([]rtree.Entry, *shard.Map) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		data := make([]rtree.Entry, 500)
		for i := range data {
			data[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
		}
		m, err := shard.Build(data, shard.Config{K: 2, MaxInsertEdge: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return data, m
	}
	serve := func(data []rtree.Entry, m *shard.Map, hbInv time.Duration) []string {
		t.Helper()
		assign := m.Assign(data)
		addrs := make([]string, m.K())
		for s := 0; s < m.K(); s++ {
			reg, err := region.New(1<<14, 4096)
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
			srv, err := Listen("127.0.0.1:0", tree, ServerConfig{
				HeartbeatInterval: hbInv,
				ShardMap:          m,
				ShardIndex:        s,
			})
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve() //nolint:errcheck // returns on Close
			t.Cleanup(func() { srv.Close() })
			addrs[s] = srv.Addr().String()
		}
		return addrs
	}

	t.Run("corrupt-checksum", func(t *testing.T) {
		data, m := buildData(51)
		bad := *m
		bad.Version ^= 0xdeadbeef // content no longer hashes to the header
		addrs := serve(data, &bad, 0)
		_, err := connectRouter(addrs, RouterConfig{})
		if !errors.Is(err, shard.ErrVersionMismatch) {
			t.Fatalf("corrupt map accepted: err = %v, want ErrVersionMismatch", err)
		}
		// The sim router rejects the same corruption at construction.
		if _, err := shard.NewRouter(shard.RouterConfig{Map: &bad}); !errors.Is(err, shard.ErrVersionMismatch) {
			t.Fatalf("sim router accepted corrupt map: err = %v", err)
		}
	})

}

// TestNetStaleMapNotAdopted drops a same-K map with a different version
// into a running deployment and verifies the router never adopts it: the
// version changed but the cell count did not grow, so it is not a reshard
// successor.
func TestNetStaleMapNotAdopted(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	addrs, srvs, m, _ := startShardedDeploy(t, 1000, 2, hbInv)
	r, err := connectRouter(addrs, RouterConfig{HealthMultiple: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	// A structurally valid map with the same cell count but another
	// version: rebuilt from different data.
	rng := rand.New(rand.NewSource(61))
	other := make([]rtree.Entry, 500)
	for i := range other {
		other[i] = rtree.Entry{Rect: randRect(rng, 0.02), Ref: uint64(i)}
	}
	om, err := shard.Build(other, shard.Config{K: 2, MaxInsertEdge: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if om.Version == m.Version {
		t.Fatal("test needs maps with distinct versions")
	}
	if err := srvs[0].adoptShardMap(om, 0, nil); err != nil {
		t.Fatal(err)
	}

	// Give the router plenty of heartbeats advertising the stale version;
	// every operation must keep succeeding on the original map.
	deadline := time.Now().Add(20 * hbInv)
	for time.Now().Before(deadline) {
		if _, _, err := r.Search(geo.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}); err != nil {
			t.Fatalf("search during stale-map advertisement: %v", err)
		}
		time.Sleep(hbInv / 2)
	}
	if got := r.Map().Version; got != m.Version {
		t.Fatalf("router adopted stale map %#x", got)
	}
	if got := r.Stats().MapAdoptions; got != 0 {
		t.Fatalf("map adoptions = %d, want 0", got)
	}
}

// TestNetAvailabilityMetrics asserts the §5.11 observability surface: the
// per-shard liveness gauge, the skipped-search and promotion counters on
// the client scrape, and replication lag plus the resharding state machine
// on the server scrape.
func TestNetAvailabilityMetrics(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	cliReg := telemetry.NewRegistry()
	addrs, backups, srvs, _, _ := startReplicatedDeploy(t, 1000, 2, 2, hbInv, 0)
	r, err := connectRouter(addrs, RouterConfig{
		Client:         ClientConfig{Metrics: cliReg},
		HealthMultiple: 3,
		Backups:        backups,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, _, err := r.Search(geo.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cliReg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"catfish_shard_healthy",
		"catfish_shard_skipped_searches_total",
		"catfish_router_promotions_total",
		"catfish_router_backup_reads_total",
		"catfish_router_map_adoptions_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("client scrape missing %s", name)
		}
	}
	if !strings.Contains(out, `shard="0"`) || !strings.Contains(out, `shard="1"`) {
		t.Error("healthy gauge not labelled per shard")
	}
	if !strings.Contains(out, "catfish_shard_healthy{shard=\"0\"} 1") {
		t.Errorf("healthy shard 0 gauge not 1; scrape:\n%s", out)
	}

	// Server side: a replicated primary with a registry exposes lag and the
	// reshard state machine. Write through it so the repl counters move.
	srvReg := telemetry.NewRegistry()
	reg2, err := region.New(1<<12, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := rtree.New(reg2, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := Listen("127.0.0.1:0", tree2, ServerConfig{
		Replica: &ReplicaConfig{Primary: true, Backups: []string{srvs[0][1].Addr().String()}},
		Metrics: srvReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve() //nolint:errcheck // returns on Close
	t.Cleanup(func() { prim.Close() })
	pc := dial(t, prim, ClientConfig{})
	// The backup belongs to another shard's stream, so this ship is fenced
	// or rejected — irrelevant: only the metric surface is under test, and
	// even a failed ship renders the gauges.
	_ = pc.Insert(geo.Rect{MinX: 0.1, MaxX: 0.11, MinY: 0.1, MaxY: 0.11}, 7)

	buf.Reset()
	if err := srvReg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, name := range []string{
		"catfish_server_repl_lag",
		"catfish_server_promotions_total",
		"catfish_server_repl_records_total",
		"catfish_server_repl_shipped_total",
		"catfish_server_reshard_moved_total",
		"catfish_server_reshard_state",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("server scrape missing %s", name)
		}
	}
}

// TestSplitShard drives Elastic.Split, the split sequence both autoscalers
// share: a bad shard index starts nothing, a split of shard 0 of two serves
// the three-cell map with the grown address table from every server, each
// at its own index, and a refused prepare (shard 0's split not yet drained)
// closes the server it started.
func TestSplitShard(t *testing.T) {
	addrs, srvs, m, _ := startShardedDeploy(t, 500, 2, 0)
	var started []*Server
	listen := func() (*Server, error) {
		srv, _ := startServer(t, 0, ServerConfig{})
		started = append(started, srv)
		return srv, nil
	}
	release := make(chan struct{})
	d, err := NewElastic(m, srvs, listen, func(stop <-chan struct{}, _ uint64) {
		select {
		case <-release:
		case <-stop:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if _, err := d.Split(2); err == nil || len(started) != 0 {
		t.Fatalf("split of shard 2 of 2: err %v, %d servers started", err, len(started))
	}
	if k, err := d.Split(0); err != nil || k != 3 {
		t.Fatalf("split: K=%d, err %v", k, err)
	}
	nm, grown := d.Map(), d.Addrs()
	if nm.K() != 3 || len(grown) != 3 || grown[2] != started[0].Addr().String() || len(addrs) != 2 {
		t.Fatalf("K=%d, addresses %v (was %v)", nm.K(), grown, addrs)
	}
	for i, s := range append(srvs, started[0]) {
		sm := s.servedShardMap()
		if sm.m != nm || strings.Join(sm.addrs, ",") != strings.Join(grown, ",") || int(s.shardIdx.Load()) != i {
			t.Errorf("server %d serves map %#x as shard %d with %v", i, sm.m.Version, s.shardIdx.Load(), sm.addrs)
		}
	}
	if k, err := d.Split(0); err == nil || k != 3 || !started[1].closed.Load() {
		t.Fatalf("refused split: K=%d, err %v, new server closed %v", k, err, started[1].closed.Load())
	}
	close(release)
	assertDrained(t, srvs[0], nm)
	if err := d.Close(); err != nil {
		t.Fatalf("drain or close: %v", err)
	}
}

// TestDrainKeepsRacingWrites races stale clients, dialed straight to the
// shard being split, against its drain: four goroutines insert into the
// peeled cell, the first inserts queued on the latch the test holds while
// the drain starts. Every insert acked OK must afterwards be on the new
// server or, applied after the drain, still on the old one — and never on
// neither: the drain must not delete a write that held the latch when the
// split disarmed. An insert left on the old shard is the known gap of
// DESIGN.md §5.11: acked, but routers on the grown map do not read it.
func TestDrainKeepsRacingWrites(t *testing.T) {
	_, srvs, m, _ := startShardedDeploy(t, 2000, 2, 0)
	release := make(chan struct{})
	d, err := NewElastic(m, srvs, listenEmpty(t, 0), func(stop <-chan struct{}, _ uint64) {
		select {
		case <-release:
		case <-stop:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if _, err := d.Split(0); err != nil {
		t.Fatal(err)
	}
	nm, old, newSrv := d.Map(), srvs[0], d.srvs[2]

	const writers, perWriter = 4, 30
	acked := make([][]rtree.Entry, writers)
	var wg sync.WaitGroup
	old.latch.Lock()
	for w := 0; w < writers; w++ {
		c := dial(t, old, ClientConfig{})
		rng := rand.New(rand.NewSource(int64(100 + w)))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(1<<30 + w<<20 + i)}
				for nm.Owner(e.Rect) != 2 {
					e.Rect = randRect(rng, 0.01)
				}
				if err := c.Insert(e.Rect, e.Ref); err != nil {
					t.Errorf("insert into the peeled cell: %v", err)
					return
				}
				acked[w] = append(acked[w], e)
			}
		}(w)
	}
	// Nothing observable marks a goroutine parked on the latch, so the
	// sleeps only give the first inserts, then the drain, time to queue
	// there; the assertions below hold whatever order they arrive in.
	time.Sleep(20 * time.Millisecond)
	close(release)
	time.Sleep(20 * time.Millisecond)
	old.latch.Unlock()
	wg.Wait()
	waitDrained(t, old)

	has := func(c *Client, e rtree.Entry) bool {
		t.Helper()
		items, _, err := c.Search(e.Rect)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if it.Ref == e.Ref && it.Rect == e.Rect {
				return true
			}
		}
		return false
	}
	oldCli, newCli := dial(t, old, ClientConfig{}), dial(t, newSrv, ClientConfig{})
	forwarded := 0
	for _, es := range acked {
		for _, e := range es {
			onNew, onOld := has(newCli, e), has(oldCli, e)
			switch {
			case onNew && onOld:
				t.Errorf("ref %d is on both servers after the drain", e.Ref)
			case onNew:
				forwarded++
			case !onOld:
				t.Errorf("acked insert ref %d is on neither server", e.Ref)
			}
		}
	}
	if forwarded == 0 {
		t.Error("no insert was mirrored before the drain")
	}
}

// TestElasticScrape checks that Elastic's in-process scrape reads, per
// shard, exactly the utilization gauges the server's registry renders.
func TestElasticScrape(t *testing.T) {
	const hbInv = 2 * time.Millisecond
	var regs []*telemetry.Registry
	var srvs []*Server
	for i := 0; i < 2; i++ {
		reg := telemetry.NewRegistry()
		srv, _ := startServer(t, 500, ServerConfig{HeartbeatInterval: hbInv, TXLineRateBps: 1e6, Metrics: reg})
		regs, srvs = append(regs, reg), append(srvs, srv)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]rtree.Entry, 100)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
	}
	m, err := shard.Build(data, shard.Config{K: 2, MaxInsertEdge: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewElastic(m, srvs, listenEmpty(t, hbInv), func(<-chan struct{}, uint64) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	c := dial(t, srvs[1], ClientConfig{})
	for i := 0; i < 50; i++ {
		if _, _, err := c.Search(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for heartbeats to move both gauges, then freeze them: a pause
	// stops the next tick, and one tick already past the check finishes
	// its two stores within the interval.
	deadline := time.Now().Add(5 * time.Second)
	for srvs[0].core.Counters.Util.Load() == 0 || srvs[1].core.Counters.TXUtil.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeats never moved the utilization gauges")
		}
		time.Sleep(hbInv)
	}
	for _, srv := range srvs {
		srv.PauseHeartbeats(true)
	}
	time.Sleep(5 * hbInv)
	samples, err := d.Scrape()
	if err != nil || len(samples) != 2 {
		t.Fatalf("scrape: %v, %d samples", err, len(samples))
	}
	for i, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		gauge := func(name string) float64 {
			t.Helper()
			for _, line := range strings.Split(buf.String(), "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatal(err)
					}
					return f
				}
			}
			t.Fatalf("shard %d renders no %s", i, name)
			return 0
		}
		s := samples[i]
		if s.Shard != i || s.Err != nil || s.Util != gauge("catfish_server_utilization") ||
			s.TXUtil != gauge("catfish_server_tx_utilization") {
			t.Errorf("shard %d: sample %+v, registry renders:\n%s", i, s, buf.String())
		}
	}
}

// TestElasticCloseWaitsDrain closes a deployment right after a split whose
// drain is still waiting: Close returns, the drain never runs (the split
// shard stays committed, not drained, and every server is closed), and no
// goroutine outlives the deployment.
func TestElasticCloseWaitsDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	_, srvs, m, _ := startShardedDeploy(t, 500, 2, 2*time.Millisecond)
	var started *Server
	d, err := NewElastic(m, srvs, func() (*Server, error) {
		started, _ = startServer(t, 0, ServerConfig{HeartbeatInterval: 2 * time.Millisecond})
		return started, nil
	}, func(stop <-chan struct{}, _ uint64) { <-stop })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Split(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srvs[0].reshardPhase.Load(); got != reshardCommitted {
		t.Errorf("split shard phase %d after Close, want %d (committed, never drained)", got, reshardCommitted)
	}
	for i, srv := range append(srvs, started) {
		if !srv.closed.Load() {
			t.Errorf("server %d still open after Close", i)
		}
	}
	if _, err := d.Split(1); err == nil {
		t.Error("split after Close succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before the deployment:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
