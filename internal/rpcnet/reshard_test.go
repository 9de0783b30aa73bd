package rpcnet

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/telemetry"
)

// TestNetLiveReshard splits shard 0 onto a freshly started server while a
// router keeps issuing requests: zero failed requests through the prepare,
// commit, adoption, and drain phases; the router converges to the bumped
// map version mid-run; and the final state is equivalent to the tracked
// ground truth.
func TestNetLiveReshard(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	addrs, srvs, m, data := startShardedDeploy(t, 2000, 2, hbInv)
	// Servers need the address table so the committed map can carry it.
	for s, srv := range srvs {
		if err := srv.AdoptShardMap(m, s, addrs); err != nil {
			t.Fatal(err)
		}
	}
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
	churn := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			switch roll := rng.Float64(); {
			case roll < 0.5:
				q := randRect(rng, rng.Float64()*0.2)
				if _, _, err := r.Search(q); err != nil {
					t.Fatalf("search failed mid-reshard: %v", err)
				}
			case roll < 0.8:
				e := rtree.Entry{Rect: randRect(rng, 0.01), Ref: nextRef}
				nextRef++
				if err := r.Insert(e.Rect, e.Ref); err != nil {
					t.Fatalf("insert failed mid-reshard: %v", err)
				}
				live[e.Ref] = e.Rect
			default:
				for ref, rect := range live {
					if err := r.Delete(rect, ref); err != nil {
						t.Fatalf("delete failed mid-reshard: %v", err)
					}
					delete(live, ref)
					break
				}
			}
		}
	}

	churn(40)

	// The reshard target starts empty and unsharded; PrepareReshard
	// snapshots shard 0 under one latch hold, streams the peeled half over,
	// and arms the dual-write.
	newSrv, _ := startServer(t, 0, ServerConfig{HeartbeatInterval: hbInv})
	newAddr := newSrv.Addr().String()
	nm, err := srvs[0].PrepareReshard(newAddr)
	if err != nil {
		t.Fatal(err)
	}
	if nm.K() != 3 || nm.Version == m.Version {
		t.Fatalf("successor map K=%d version=%#x (old %#x)", nm.K(), nm.Version, m.Version)
	}
	if got := srvs[0].Stats().ReshardMoved; got == 0 {
		t.Fatal("no entries streamed to the reshard target")
	}

	// Dual-write window: routers still run the old map; writes landing in
	// the peeled cell are mirrored.
	churn(40)

	// The target adopts the committed map (how it joins the deployment),
	// then the old shard publishes it. Shard 1 learns the map too, as the
	// resharding coordinator would arrange.
	newAddrs := append(append([]string(nil), addrs...), newAddr)
	if err := newSrv.AdoptShardMap(nm, nm.K()-1, newAddrs); err != nil {
		t.Fatal(err)
	}
	if _, err := srvs[0].CommitReshard(); err != nil {
		t.Fatal(err)
	}
	if err := srvs[1].AdoptShardMap(nm, 1, newAddrs); err != nil {
		t.Fatal(err)
	}

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
	// entries. After the drain the old shard no longer answers for them.
	churn(40)
	if err := srvs[0].DrainSplit(); err != nil {
		t.Fatal(err)
	}
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
		if _, ok := live[it.Ref]; !ok {
			t.Fatalf("final scan returned unexpected ref %d", it.Ref)
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
	if err := srvs[0].AdoptShardMap(om, 0, nil); err != nil {
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

// TestSplitShard drives the split sequence the autoscalers share: a bad
// shard index starts nothing, a refused prepare closes the server it
// started, and a split of shard 0 of two serves the three-cell map with the
// grown address table from every server, each at its own index.
func TestSplitShard(t *testing.T) {
	addrs, srvs, m, _ := startShardedDeploy(t, 500, 2, 0)
	var started []*Server
	listen := func() (*Server, error) {
		srv, _ := startServer(t, 0, ServerConfig{})
		started = append(started, srv)
		return srv, nil
	}
	if _, _, _, err := SplitShard(srvs, addrs, 2, listen); err == nil || len(started) != 0 {
		t.Fatalf("split of shard 2 of 2: err %v, %d servers started", err, len(started))
	}
	// The servers do not serve the address table yet, so PrepareReshard
	// refuses.
	if _, _, _, err := SplitShard(srvs, addrs, 0, listen); err == nil || !started[0].closed.Load() {
		t.Fatalf("refused split: err %v, new server closed %v", err, started[0].closed.Load())
	}
	for s, srv := range srvs {
		if err := srv.AdoptShardMap(m, s, addrs); err != nil {
			t.Fatal(err)
		}
	}
	srv, nm, grown, err := SplitShard(srvs, addrs, 0, listen)
	if err != nil {
		t.Fatal(err)
	}
	if nm.K() != 3 || len(grown) != 3 || grown[2] != srv.Addr().String() || len(addrs) != 2 {
		t.Fatalf("K=%d, addresses %v (was %v)", nm.K(), grown, addrs)
	}
	for i, s := range append(srvs, srv) {
		sm := s.servedShardMap()
		if sm.m != nm || strings.Join(sm.addrs, ",") != strings.Join(grown, ",") || int(s.shardIdx.Load()) != i {
			t.Errorf("server %d serves map %#x as shard %d with %v", i, sm.m.Version, s.shardIdx.Load(), sm.addrs)
		}
	}
	if err := srvs[0].DrainSplit(); err != nil {
		t.Fatal(err)
	}
}
