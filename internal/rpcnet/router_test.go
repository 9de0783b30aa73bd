package rpcnet

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/wire"
)

// startShardedDeploy builds one dataset, partitions it K ways, and serves
// each shard's slice from its own server on a random localhost port.
func startShardedDeploy(t *testing.T, n, k int, hbInv time.Duration) ([]string, []*Server, *shard.Map, []rtree.Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	data := make([]rtree.Entry, n)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.01), Ref: uint64(i)}
	}
	m, err := shard.Build(data, shard.Config{K: k, MaxInsertEdge: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	assign := m.Assign(data)
	addrs := make([]string, k)
	srvs := make([]*Server, k)
	for s := 0; s < k; s++ {
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
		srvs[s] = srv
	}
	return addrs, srvs, m, data
}

func sortedRefSet(items []wire.Item) []uint64 {
	refs := make([]uint64, len(items))
	for i, it := range items {
		refs[i] = it.Ref
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	return refs
}

func equalRefs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// netProbeRect finds a tiny rect whose scatter set is exactly {want}.
func netProbeRect(t *testing.T, m *shard.Map, want int) geo.Rect {
	t.Helper()
	const eps = 1e-6
	var scratch []int
	for x := 0.01; x < 1; x += 0.017 {
		for y := 0.01; y < 1; y += 0.017 {
			r := geo.Rect{MinX: x, MaxX: x + eps, MinY: y, MaxY: y + eps}
			scratch = m.Targets(r, scratch)
			if len(scratch) == 1 && scratch[0] == want && m.Owner(r) == want {
				return r
			}
		}
	}
	t.Fatalf("no probe rect lands only on shard %d", want)
	return geo.Rect{}
}

func TestRouterEquivalence(t *testing.T) {
	// A K=4 router and a single server loaded with the whole dataset must
	// answer every search identically, through interleaved inserts and
	// deletes applied to both.
	const n = 4000
	addrs, _, _, data := startShardedDeploy(t, n, 4, 0)
	r, err := connectRouter(addrs, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if r.Map().K() != 4 {
		t.Fatalf("map K = %d", r.Map().K())
	}

	// Reference single server over the same entries. startServer seeds its
	// own tree, so load this one by hand from the shared dataset.
	srv, refTree := startServer(t, 0, ServerConfig{})
	if err := refTree.BulkLoad(append([]rtree.Entry(nil), data...), 0); err != nil {
		t.Fatal(err)
	}
	single := dial(t, srv, ClientConfig{})

	rng := rand.New(rand.NewSource(12))
	live := append([]rtree.Entry(nil), data...)
	nextRef := uint64(n + 1000)
	for op := 0; op < 200; op++ {
		switch roll := rng.Float64(); {
		case roll < 0.6:
			q := randRect(rng, rng.Float64()*0.3)
			got, _, err := r.Search(q)
			if err != nil {
				t.Fatalf("op %d: router search: %v", op, err)
			}
			want, _, err := single.Search(q)
			if err != nil {
				t.Fatalf("op %d: single search: %v", op, err)
			}
			if !equalRefs(sortedRefSet(got), sortedRefSet(want)) {
				t.Fatalf("op %d: search %v: router %d items, single %d items", op, q, len(got), len(want))
			}
		case roll < 0.8:
			e := rtree.Entry{Rect: randRect(rng, 0.01), Ref: nextRef}
			nextRef++
			if err := r.Insert(e.Rect, e.Ref); err != nil {
				t.Fatalf("op %d: router insert: %v", op, err)
			}
			if err := single.Insert(e.Rect, e.Ref); err != nil {
				t.Fatalf("op %d: single insert: %v", op, err)
			}
			live = append(live, e)
		default:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := r.Delete(e.Rect, e.Ref); err != nil {
				t.Fatalf("op %d: router delete: %v", op, err)
			}
			if err := single.Delete(e.Rect, e.Ref); err != nil {
				t.Fatalf("op %d: single delete: %v", op, err)
			}
		}
	}

	// Final full scan: the two deployments hold identical entry sets.
	all := geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}
	got, _, err := r.Search(all)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := single.Search(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(live) {
		t.Fatalf("single server holds %d entries, expected %d", len(want), len(live))
	}
	if !equalRefs(sortedRefSet(got), sortedRefSet(want)) {
		t.Fatalf("final scan differs: router %d items, single %d items", len(got), len(want))
	}

	st := r.Stats()
	if st.Searches == 0 || st.Writes == 0 || st.Fanout < st.Searches {
		t.Errorf("stats look wrong: %+v", st)
	}
}

func TestRouterBatchedEquivalence(t *testing.T) {
	const n = 3000
	addrs, _, _, data := startShardedDeploy(t, n, 2, 0)
	r, err := connectRouter(addrs, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	srv, refTree := startServer(t, 0, ServerConfig{})
	if err := refTree.BulkLoad(append([]rtree.Entry(nil), data...), 0); err != nil {
		t.Fatal(err)
	}
	single := dial(t, srv, ClientConfig{})

	rng := rand.New(rand.NewSource(13))
	nextRef := uint64(n + 1000)
	var rres, sres []BatchResult
	for round := 0; round < 10; round++ {
		ops := make([]BatchOp, 0, 8)
		for len(ops) < 8 {
			if rng.Float64() < 0.7 {
				ops = append(ops, BatchOp{Type: wire.MsgSearch, Rect: randRect(rng, rng.Float64()*0.2)})
			} else {
				ops = append(ops, BatchOp{Type: wire.MsgInsert, Rect: randRect(rng, 0.01), Ref: nextRef})
				nextRef++
			}
		}
		rres = r.ExecBatch(ops, rres)
		sres = single.ExecBatch(ops, sres)
		for i := range ops {
			if rres[i].Err != nil || sres[i].Err != nil {
				t.Fatalf("round %d op %d: errs %v / %v", round, i, rres[i].Err, sres[i].Err)
			}
			if !equalRefs(sortedRefSet(rres[i].Items), sortedRefSet(sres[i].Items)) {
				t.Fatalf("round %d op %d: router %d items, single %d items",
					round, i, len(rres[i].Items), len(sres[i].Items))
			}
		}
	}
}

func TestRouterDroppedHeartbeat(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	addrs, srvs, m, _ := startShardedDeploy(t, 2000, 2, hbInv)
	r, err := connectRouter(addrs, RouterConfig{HealthMultiple: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	probe0 := netProbeRect(t, m, 0)
	probe1 := netProbeRect(t, m, 1)

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(hbInv / 2)
		}
	}

	waitFor("both shards healthy", func() bool { return r.Healthy(0) && r.Healthy(1) })

	srvs[1].PauseHeartbeats(true)
	waitFor("shard 1 unhealthy", func() bool { return !r.Healthy(1) })
	if !r.Healthy(0) {
		t.Fatal("shard 0 must stay healthy")
	}

	// Searches targeting only the dead shard degrade to an empty result.
	before := r.Stats().Skipped
	items, _, err := r.Search(probe1)
	if err != nil || len(items) != 0 {
		t.Fatalf("search on dead shard: items=%d err=%v", len(items), err)
	}
	if got := r.Stats().Skipped; got != before+1 {
		t.Errorf("skipped counter %d, want %d", got, before+1)
	}
	// A search spanning both shards still returns the healthy shard's part.
	if _, _, err := r.Search(geo.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}); err != nil {
		t.Fatalf("degraded wide search: %v", err)
	}

	// Writes owned by the dead shard fail typed; the healthy shard accepts.
	err = r.Insert(probe1, 1<<30)
	if !errors.Is(err, shard.ErrUnhealthy) {
		t.Fatalf("insert to dead shard: %v", err)
	}
	var ue *shard.UnhealthyError
	if !errors.As(err, &ue) || ue.Shard != 1 {
		t.Fatalf("wrong shard in error: %v", err)
	}
	if err := r.Insert(probe0, 1<<30+1); err != nil {
		t.Fatalf("insert to healthy shard: %v", err)
	}
	res := r.ExecBatch([]BatchOp{{Type: wire.MsgInsert, Rect: probe1, Ref: 1<<30 + 2}}, nil)
	if !errors.Is(res[0].Err, shard.ErrUnhealthy) {
		t.Fatalf("batched insert to dead shard: %v", res[0].Err)
	}

	// Heartbeats resume: the shard recovers and takes writes again.
	srvs[1].PauseHeartbeats(false)
	waitFor("shard 1 recovered", func() bool { return r.Healthy(1) })
	if err := r.Insert(probe1, 1<<30+3); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

func TestRouterHelloValidation(t *testing.T) {
	addrs, _, _, _ := startShardedDeploy(t, 500, 2, 0)

	// Addresses out of shard order must be rejected.
	if _, err := connectRouter([]string{addrs[1], addrs[0]}, RouterConfig{}); err == nil {
		t.Fatal("swapped shard addresses accepted")
	}
	// A partial address list must be rejected.
	if _, err := connectRouter(addrs[:1], RouterConfig{}); err == nil {
		t.Fatal("partial address list accepted")
	}
	// The correct list still works after the failed attempts.
	r, err := connectRouter(addrs, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

func TestRouterSingleUnsharded(t *testing.T) {
	// One unsharded server is a valid trivial deployment: the router
	// degenerates to a plain client behind a K=1 map.
	srv, tree := startServer(t, 1000, ServerConfig{})
	r, err := connectRouter([]string{srv.Addr().String()}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if r.Map().K() != 1 {
		t.Fatalf("map K = %d", r.Map().K())
	}
	q := geo.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}
	got, _, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := tree.SearchCollect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("router %d items, tree %d", len(got), len(want))
	}
	// An unsharded server has no map to serve.
	if _, err := r.Serving(0).FetchShardMap(); err == nil {
		t.Fatal("unsharded server served a shard map")
	}
}
