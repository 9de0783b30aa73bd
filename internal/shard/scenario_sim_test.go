package shard

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// moveStep is one scripted geo-serving op on the simulated fabric: a MOVE
// (sometimes of a never-seeded ref — the upsert case) or a window search.
type moveStep struct {
	search   bool
	q        geo.Rect
	from, to geo.Rect
	ref      uint64
}

func genSimMoveScript(seed int64, ticks int) []moveStep {
	rng := rand.New(rand.NewSource(seed))
	fleet := scenario.NewMovingObjects(rng, scenario.MovingConfig{
		N: 20, Speed: 0.2, RefBase: 1 << 30,
	})
	var steps []moveStep
	for tick := 0; tick < ticks; tick++ {
		for _, mv := range fleet.Tick(rng, nil) {
			steps = append(steps, moveStep{from: mv.From, to: mv.To, ref: mv.Ref})
			if rng.Float64() < 0.3 {
				steps = append(steps, moveStep{search: true, q: randRect(rng, 0.15)})
			}
		}
		ghost := uint64(1<<40) + uint64(tick)
		pos := scenario.NewMovingObjects(rng, scenario.MovingConfig{N: 1, RefBase: ghost})
		steps = append(steps, moveStep{from: pos.Rect(0), to: pos.Rect(0), ref: ghost})
	}
	return steps
}

// moveGroundTruth replays the script against a linear scan over the base
// data plus the tracked fleet positions (moves are upserts).
func moveGroundTruth(data []rtree.Entry, steps []moveStep) [][]uint64 {
	pos := make(map[uint64]geo.Rect)
	out := make([][]uint64, len(steps))
	for i, st := range steps {
		if !st.search {
			pos[st.ref] = st.to
			continue
		}
		var items []wire.Item
		for _, e := range data {
			if st.q.Intersects(e.Rect) {
				items = append(items, wire.Item{Rect: e.Rect, Ref: e.Ref})
			}
		}
		for ref, r := range pos {
			if st.q.Intersects(r) {
				items = append(items, wire.Item{Rect: r, Ref: ref})
			}
		}
		out[i] = sortedRefs(items)
	}
	return out
}

// runSimMoveScript replays the script through a deployment's router in the
// given move dialect and returns each search's sorted refs.
func runSimMoveScript(t *testing.T, d *simDeploy, steps []moveStep, dialect string) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(steps))
	var runErr error
	d.e.Spawn("scenario-script", func(p *sim.Proc) {
		defer p.Engine().Stop()
		var batch []client.BatchOp
		var idx []int
		var results []client.BatchResult
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			results = d.router.On(p).ExecBatch(batch, results)
			for j, res := range results {
				if res.Err != nil {
					runErr = res.Err
					return false
				}
				if batch[j].Type == wire.MsgSearch {
					out[idx[j]] = sortedRefs(res.Items)
				}
			}
			batch, idx = batch[:0], idx[:0]
			return true
		}
		for i, st := range steps {
			switch {
			case dialect == "batched-move":
				if st.search {
					batch = append(batch, client.BatchOp{Type: wire.MsgSearch, Rect: st.q})
				} else {
					batch = append(batch, client.BatchOp{Type: wire.MsgMove, Rect: st.from, Rect2: st.to, Ref: st.ref})
				}
				idx = append(idx, i)
				if len(batch) >= 8 && !flush() {
					return
				}
			case st.search:
				items, _, err := d.router.On(p).Search(st.q)
				if err != nil {
					runErr = err
					return
				}
				out[i] = sortedRefs(items)
			case dialect == "move":
				if err := d.router.On(p).Move(st.from, st.to, st.ref); err != nil {
					runErr = err
					return
				}
			default: // del+ins
				if err := d.router.On(p).Delete(st.from, st.ref); err != nil && !errors.Is(err, client.ErrNotFound) {
					runErr = err
					return
				}
				if err := d.router.On(p).Insert(st.to, st.ref); err != nil {
					runErr = err
					return
				}
			}
		}
		flush()
	})
	if err := d.e.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// TestMoveEquivalenceSim checks the randomized MOVE-equivalence claim on
// the simulated fabric: a scripted MOVE stream (upserts included) yields
// exactly the linear-scan ground truth whether expressed as MOVE ops,
// batched MOVE ops, or tolerated-delete+insert pairs, on K=1 and K=4
// (cross-shard move chains), over both the ring and TCP transports.
func TestMoveEquivalenceSim(t *testing.T) {
	const hbInv = 2 * time.Millisecond
	rng := rand.New(rand.NewSource(61))
	data := make([]rtree.Entry, 600)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.002), Ref: uint64(i)}
	}
	script := genSimMoveScript(99, 5)
	// Batched interleaving reorders ops inside a flight relative to the
	// script, so the batched dialect is only compared on the final state:
	// the trailing whole-plane scan every dialect's script ends with.
	script = append(script, moveStep{search: true, q: geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}})
	want := moveGroundTruth(data, script)
	for _, tr := range []simTransport{simTransports[0], simTransports[2]} {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			for _, k := range []int{1, 4} {
				for _, dialect := range []string{"move", "del+ins", "batched-move"} {
					d := buildSimDeploy(t, data, k, tr, hbInv, 0)
					got := runSimMoveScript(t, d, script, dialect)
					if dialect == "batched-move" {
						last := len(script) - 1
						if _, ok := equalResults([][]uint64{got[last]}, [][]uint64{want[last]}); !ok {
							t.Fatalf("K=%d %s: final scan diverged from ground truth (%d vs %d refs)",
								k, dialect, len(got[last]), len(want[last]))
						}
						continue
					}
					if i, ok := equalResults(got, want); !ok {
						t.Fatalf("K=%d %s: search step %d diverged from ground truth", k, dialect, i)
					}
				}
			}
		})
	}
}

// unionTree is one tree over the whole dataset, the reference a sharded kNN
// must reproduce.
func unionTree(t *testing.T, data []rtree.Entry) *rtree.Tree {
	t.Helper()
	reg, err := region.New(1<<14, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BulkLoad(append([]rtree.Entry(nil), data...), 0); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestKNNEquivalenceSim checks remote kNN on the simulated fabric: the
// sharded router's best-first cross-shard gather reproduces a local
// rtree.Tree.Nearest over the union dataset exactly, and prunes — the
// average fanout at small k stays far below the shard count.
func TestKNNEquivalenceSim(t *testing.T) {
	const hbInv = 2 * time.Millisecond
	rng := rand.New(rand.NewSource(71))
	data := make([]rtree.Entry, 3000)
	for i := range data {
		data[i] = rtree.Entry{Rect: randRect(rng, 0.002), Ref: uint64(i)}
	}
	ref := unionTree(t, data)
	type query struct {
		k    int
		x, y float64
	}
	queries := make([]query, 150)
	for i := range queries {
		queries[i] = query{k: []int{1, 5, 32}[i%3], x: rng.Float64(), y: rng.Float64()}
	}
	d := buildSimDeploy(t, data, 4, simTransports[0], hbInv, 0)
	got := make([][]rtree.Neighbor, len(queries))
	var runErr error
	d.e.Spawn("knn-script", func(p *sim.Proc) {
		defer p.Engine().Stop()
		for i, q := range queries {
			nbrs, _, err := d.router.On(p).Nearest(q.k, q.x, q.y)
			if err != nil {
				runErr = err
				return
			}
			got[i] = nbrs
		}
	})
	if err := d.e.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i, q := range queries {
		want, _, err := ref.Nearest(q.k, q.x, q.y)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("query %d (k=%d): %d neighbors, want %d", i, q.k, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("query %d (k=%d) neighbor %d: %+v, want %+v", i, q.k, j, got[i][j], want[j])
			}
		}
	}
	st := d.router.Stats()
	if st.KNNs == 0 {
		t.Fatal("router recorded no kNN searches")
	}
	if avg := float64(st.Fanout) / float64(st.KNNs); avg >= 3.5 {
		t.Errorf("best-first gather averaged %.2f shard visits of 4 — pruning is not engaging", avg)
	}
}

// TestKNNTiesSim: on a grid dataset where most points coincide with others,
// so nearly every query has ties at the k-th distance, a K=4 deployment's
// best-first gather and its batched kNN path both return exactly — same
// entries, same order — what one tree over the union returns: every stage
// orders neighbors by rtree.NeighborLess.
func TestKNNTiesSim(t *testing.T) {
	const hbInv = 2 * time.Millisecond
	rng := rand.New(rand.NewSource(73))
	data := make([]rtree.Entry, 3000)
	for i := range data {
		data[i] = rtree.Entry{Rect: geo.PointRect(float64(rng.Intn(20))/20, float64(rng.Intn(20))/20), Ref: uint64(i)}
	}
	ref := unionTree(t, data)
	type query struct {
		k    int
		x, y float64
	}
	queries := make([]query, 96)
	for i := range queries {
		queries[i] = query{k: 1 + rng.Intn(60), x: float64(rng.Intn(41)) / 40, y: float64(rng.Intn(41)) / 40}
	}
	for _, batched := range []bool{false, true} {
		d := buildSimDeploy(t, data, 4, simTransports[0], hbInv, 0)
		got := make([][]wire.Item, len(queries))
		var runErr error
		d.e.Spawn("knn-ties", func(p *sim.Proc) {
			defer p.Engine().Stop()
			if !batched {
				for i, q := range queries {
					nbrs, _, err := d.router.On(p).Nearest(q.k, q.x, q.y)
					if err != nil {
						runErr = err
						return
					}
					for _, n := range nbrs {
						got[i] = append(got[i], wire.Item{Rect: n.Rect, Ref: n.Ref})
					}
				}
				return
			}
			var results []client.BatchResult
			for i := 0; i < len(queries); i += 8 {
				var ops []client.BatchOp
				for _, q := range queries[i : i+8] {
					ops = append(ops, client.BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(q.x, q.y), Ref: uint64(q.k)})
				}
				results = d.router.On(p).ExecBatch(ops, results)
				for j, res := range results {
					if res.Err != nil {
						runErr = res.Err
						return
					}
					got[i+j] = append([]wire.Item(nil), res.Items...)
				}
			}
		})
		if err := d.e.Run(); err != nil {
			t.Fatal(err)
		}
		if runErr != nil {
			t.Fatal(runErr)
		}
		for i, q := range queries {
			want, _, err := ref.Nearest(q.k, q.x, q.y)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[i]) != len(want) {
				t.Fatalf("batched=%v query %d (k=%d): %d neighbors, want %d", batched, i, q.k, len(got[i]), len(want))
			}
			for j, w := range want {
				if got[i][j].Rect != w.Rect || got[i][j].Ref != w.Ref {
					t.Fatalf("batched=%v query %d (k=%d) neighbor %d: %+v, want %+v", batched, i, q.k, j, got[i][j], w)
				}
			}
		}
	}
}
