package rpcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/wire"
)

// moveStep is one scripted geo-serving op: a MOVE (possibly of an entry the
// deployment has never seen — the upsert case) or a window search probing
// the state between moves.
type moveStep struct {
	search   bool
	q        geo.Rect
	from, to geo.Rect
	ref      uint64
}

// genMoveScript drives a moving-objects fleet through ticks, interleaving
// each tick's MOVEs with window searches, and sprinkles in moves of
// never-seeded refs to exercise the upsert degradation.
func genMoveScript(rng *rand.Rand, fleet *scenario.MovingObjects, ticks int) []moveStep {
	var steps []moveStep
	for tick := 0; tick < ticks; tick++ {
		for _, mv := range fleet.Tick(rng, nil) {
			steps = append(steps, moveStep{from: mv.From, to: mv.To, ref: mv.Ref})
			if rng.Float64() < 0.3 {
				steps = append(steps, moveStep{search: true, q: randRect(rng, 0.15)})
			}
		}
		// An unseeded object phones in: MOVE must degrade to insert exactly
		// like the tolerated-delete+insert pair does.
		ghost := uint64(1<<40) + uint64(tick)
		pos := scenario.NewMovingObjects(rng, scenario.MovingConfig{N: 1, RefBase: ghost})
		steps = append(steps, moveStep{from: pos.Rect(0), to: pos.Rect(0), ref: ghost})
	}
	return steps
}

// applyMoveScript replays the script on conn, expressing each position
// update in the requested dialect, and returns the sorted refs of every
// search step (non-search steps nil).
func applyMoveScript(t *testing.T, conn Conn, steps []moveStep, dialect string) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(steps))
	var batch []BatchOp
	var idx []int
	var results []BatchResult
	flush := func() {
		if len(batch) == 0 {
			return
		}
		results = conn.ExecBatch(batch, results)
		for j, res := range results {
			if res.Err != nil {
				t.Fatalf("batched op %d: %v", idx[j], res.Err)
			}
			if batch[j].Type == wire.MsgSearch {
				out[idx[j]] = sortedRefSet(res.Items)
			}
		}
		batch, idx = batch[:0], idx[:0]
	}
	for i, st := range steps {
		switch {
		case st.search && dialect == "batched-move":
			batch = append(batch, BatchOp{Type: wire.MsgSearch, Rect: st.q})
			idx = append(idx, i)
			if len(batch) >= 8 {
				flush()
			}
		case st.search:
			items, _, err := conn.Search(st.q)
			if err != nil {
				t.Fatalf("step %d search: %v", i, err)
			}
			out[i] = sortedRefSet(items)
		case dialect == "move":
			if err := conn.Move(st.from, st.to, st.ref); err != nil {
				t.Fatalf("step %d move: %v", i, err)
			}
		case dialect == "del+ins":
			if err := conn.Delete(st.from, st.ref); err != nil && !errors.Is(err, proto.ErrNotFound) {
				t.Fatalf("step %d delete: %v", i, err)
			}
			if err := conn.Insert(st.to, st.ref); err != nil {
				t.Fatalf("step %d insert: %v", i, err)
			}
		case dialect == "batched-move":
			// Flush at a bounded size, and never let one batch carry two
			// moves of the same ref: a cross-owner link of a move chain is
			// not ordered against the batch's deferred same-owner sub-ops
			// (see the ExecBatch MsgMove ordering note).
			batch = append(batch, BatchOp{Type: wire.MsgMove, Rect: st.from, Rect2: st.to, Ref: st.ref})
			idx = append(idx, i)
			if len(batch) >= 8 {
				flush()
			}
		}
	}
	flush()
	return out
}

// fullScan sorts every item a whole-plane search returns.
func fullScan(t *testing.T, conn Conn) []uint64 {
	t.Helper()
	items, _, err := conn.Search(geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sortedRefSet(items)
}

// TestNetMoveEquivalence checks the PR's core randomized-equivalence claim
// on the real-socket transport: the same scripted MOVE stream produces
// byte-identical search results whether it is expressed as MOVE ops,
// batched MOVE ops, or tolerated-delete+insert pairs — on a plain server, a
// 3-shard deployment (cross-boundary moves included), and a 2-shard R=2
// replicated deployment.
func TestNetMoveEquivalence(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	dialects := []string{"move", "del+ins", "batched-move"}
	shapes := []struct {
		name string
		mk   func(t *testing.T) Conn
	}{
		{"plain", func(t *testing.T) Conn {
			srv, _ := startServer(t, 800, ServerConfig{HeartbeatInterval: hbInv})
			c, err := Connect([]string{srv.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"sharded-3", func(t *testing.T) Conn {
			addrs, _, _, _ := startShardedDeploy(t, 800, 3, hbInv)
			c, err := Connect(addrs, WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"replicated-2x2", func(t *testing.T) Conn {
			addrs, backups, _, _, _ := startReplicatedDeploy(t, 800, 2, 2, hbInv, 0)
			c, err := Connect(addrs, WithSeed(7), WithBackups(backups))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			// The script moves refs disjoint from both deployments' seeded
			// datasets (fleet refs start at 1<<30), so every arm sees the
			// identical upsert-then-track history.
			script := genMoveScript(
				rand.New(rand.NewSource(5)),
				scenario.NewMovingObjects(rand.New(rand.NewSource(5)), scenario.MovingConfig{
					N: 24, Speed: 0.2, RefBase: 1 << 30,
				}),
				6)
			var wantSearches [][]uint64
			var wantScan []uint64
			for di, dialect := range dialects {
				conn := shape.mk(t)
				searches := applyMoveScript(t, conn, script, dialect)
				scan := fullScan(t, conn)
				if di == 0 {
					wantSearches, wantScan = searches, scan
					continue
				}
				if !equalRefs(scan, wantScan) {
					t.Fatalf("%s: final scan diverged from %s (%d vs %d refs)",
						dialect, dialects[0], len(scan), len(wantScan))
				}
				// Batched interleaving reorders searches inside a flight, so
				// mid-stream probes are only comparable between the two
				// unbatched dialects.
				if dialect == "del+ins" {
					for i := range searches {
						if !equalRefs(searches[i], wantSearches[i]) {
							t.Fatalf("del+ins: search step %d diverged from move dialect", i)
						}
					}
				}
			}
		})
	}
}

// TestNetKNNMatchesLocal checks the remote-kNN equivalence claim: Nearest
// over the wire — fast messaging, the fetch path, and the sharded
// best-first gather — reproduces a local rtree.Tree.Nearest exactly,
// including queries whose k-set straddles shard boundaries.
func TestNetKNNMatchesLocal(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	const n = 2000
	check := func(t *testing.T, conn Conn, ref *rtree.Tree) {
		t.Helper()
		rng := rand.New(rand.NewSource(17))
		for q := 0; q < 120; q++ {
			k := []int{1, 5, 32}[q%3]
			x, y := rng.Float64(), rng.Float64()
			got, _, err := conn.Nearest(k, x, y)
			if err != nil {
				t.Fatalf("query %d: %v", q, err)
			}
			want, _, err := ref.Nearest(k, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d at (%g, %g): %d neighbors, want %d", q, x, y, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %d at (%g, %g): neighbor %d = %+v, want %+v", q, x, y, i, got[i], want[i])
				}
			}
		}
	}
	// Exactness here means every shard answers: a liveness window that a
	// busy machine can outlast (the default is 40 ms at this interval) would
	// drop a healthy shard from the gather and fail the comparison.
	stallProof := WithHealthMultiple(5000)
	refTree := func(t *testing.T, data []rtree.Entry) *rtree.Tree {
		t.Helper()
		reg, err := region.New(1<<14, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(append([]rtree.Entry(nil), data...), 0); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	for _, forced := range []Method{MethodFast, MethodFetch} {
		forced := forced
		t.Run("single-"+forced.String(), func(t *testing.T) {
			srv, tree := startServer(t, n, ServerConfig{HeartbeatInterval: hbInv, FetchSlots: 8})
			c, err := Connect([]string{srv.Addr().String()}, WithForced(forced))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			check(t, c, tree)
		})
	}
	t.Run("sharded-3", func(t *testing.T) {
		addrs, _, _, data := startShardedDeploy(t, n, 3, hbInv)
		c, err := Connect(addrs, WithSeed(3), stallProof)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		check(t, c, refTree(t, data))
	})
	t.Run("sharded-3-batched", func(t *testing.T) {
		addrs, _, _, data := startShardedDeploy(t, n, 3, hbInv)
		c, err := Connect(addrs, WithSeed(3), stallProof)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ref := refTree(t, data)
		rng := rand.New(rand.NewSource(19))
		for round := 0; round < 20; round++ {
			ops := make([]BatchOp, 6)
			type qp struct{ x, y float64 }
			pts := make([]qp, len(ops))
			for i := range ops {
				pts[i] = qp{rng.Float64(), rng.Float64()}
				ops[i] = BatchOp{Type: wire.MsgKNN, Rect: geo.PointRect(pts[i].x, pts[i].y), Ref: 5}
			}
			results := c.ExecBatch(ops, nil)
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("round %d op %d: %v", round, i, res.Err)
				}
				want, _, err := ref.Nearest(5, pts[i].x, pts[i].y)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Items) != len(want) {
					t.Fatalf("round %d op %d: %d items, want %d", round, i, len(res.Items), len(want))
				}
				for j, it := range res.Items {
					if it.Ref != want[j].Ref || it.Rect != want[j].Rect {
						t.Fatalf("round %d op %d item %d: {%v %d}, want {%v %d}",
							round, i, j, it.Rect, it.Ref, want[j].Rect, want[j].Ref)
					}
				}
			}
		}
	})
}

// TestNetScenarioHammer runs the full geo-serving mix — concurrent MOVEs,
// window searches, and kNN queries — against a 3-shard deployment from
// many goroutines at once. Its job is to give the race detector something
// to chew on across the new MOVE/kNN paths (CI runs this package under
// -race); correctness here is only "no errors, sane result shapes".
func TestNetScenarioHammer(t *testing.T) {
	const hbInv = 4 * time.Millisecond
	addrs, _, _, _ := startShardedDeploy(t, 1500, 3, hbInv)
	const loaders = 8
	ops := 150
	if testing.Short() {
		ops = 40
	}
	var wg sync.WaitGroup
	errCh := make(chan error, loaders)
	for li := 0; li < loaders; li++ {
		li := li
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Connect(addrs, WithSeed(int64(li)))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(100 + li)))
			fleet := scenario.NewMovingObjects(rng, scenario.MovingConfig{
				N: 16, Speed: 0.05, RefBase: uint64(1<<30) + uint64(li)<<20,
			})
			var pending []scenario.Move
			for i := 0; i < ops; i++ {
				switch rng.Intn(3) {
				case 0:
					if len(pending) == 0 {
						pending = fleet.Tick(rng, pending)
					}
					mv := pending[len(pending)-1]
					pending = pending[:len(pending)-1]
					if err := c.Move(mv.From, mv.To, mv.Ref); err != nil {
						errCh <- fmt.Errorf("loader %d move: %w", li, err)
						return
					}
				case 1:
					if _, _, err := c.Search(randRect(rng, 0.05)); err != nil {
						errCh <- fmt.Errorf("loader %d search: %w", li, err)
						return
					}
				default:
					nbrs, _, err := c.Nearest(4, rng.Float64(), rng.Float64())
					if err != nil {
						errCh <- fmt.Errorf("loader %d knn: %w", li, err)
						return
					}
					if len(nbrs) != 4 {
						errCh <- fmt.Errorf("loader %d knn returned %d of 4", li, len(nbrs))
						return
					}
					for j := 1; j < len(nbrs); j++ {
						if nbrs[j].DistSq < nbrs[j-1].DistSq {
							errCh <- fmt.Errorf("loader %d knn results out of order", li)
							return
						}
					}
				}
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}
