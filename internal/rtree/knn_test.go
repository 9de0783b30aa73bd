package rtree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

func TestNearestValidation(t *testing.T) {
	tree := newTestTree(t, 8, 8)
	if _, _, err := tree.Nearest(0, 0.5, 0.5); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, _, err := tree.Nearest(-3, 0.5, 0.5); !errors.Is(err, ErrBadK) {
		t.Errorf("negative k err = %v", err)
	}
	got, _, err := tree.Nearest(5, 0.5, 0.5)
	if err != nil || len(got) != 0 {
		t.Errorf("empty tree Nearest = %v, %v", got, err)
	}
}

func TestNearestBasic(t *testing.T) {
	tree := newTestTree(t, 64, 8)
	points := []struct {
		x, y float64
		ref  uint64
	}{
		{0.1, 0.1, 1}, {0.2, 0.2, 2}, {0.9, 0.9, 3}, {0.5, 0.5, 4},
	}
	for _, p := range points {
		if _, err := tree.Insert(geo.PointRect(p.x, p.y), p.ref); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tree.Nearest(2, 0.15, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Ref > 2 || got[1].Ref > 2 {
		t.Fatalf("nearest to (0.15, 0.15) = %+v", got)
	}
	if got[0].DistSq > got[1].DistSq {
		t.Error("results not in distance order")
	}
	// A query point inside a rectangle has distance zero.
	got, _, err = tree.Nearest(1, 0.9, 0.9)
	if err != nil || len(got) != 1 || got[0].Ref != 3 || got[0].DistSq != 0 {
		t.Fatalf("inside query = %+v, %v", got, err)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	tree := newTestTree(t, 4096, 16)
	rng := rand.New(rand.NewSource(12))
	const n = 5000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Rect: uniformRect(rng, 0.01), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(append([]Entry(nil), entries...), 0); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		x, y := rng.Float64(), rng.Float64()
		k := 1 + rng.Intn(20)
		got, st, err := tree.Nearest(k, x, y)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		dists := make([]float64, n)
		for i, e := range entries {
			dists[i] = e.Rect.DistSqToPoint(x, y)
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		if len(got) != k {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), k)
		}
		for i := range got {
			if got[i].DistSq != sorted[i] {
				t.Fatalf("trial %d: result %d dist %v, want %v", trial, i, got[i].DistSq, sorted[i])
			}
		}
		// Best-first must not read the whole tree for small k.
		shape, _ := tree.Shape()
		if st.NodesRead >= shape.Nodes {
			t.Errorf("trial %d: kNN read every node (%d)", trial, st.NodesRead)
		}
	}
}

func TestDistSqToPoint(t *testing.T) {
	r := geo.NewRect(1, 1, 3, 2)
	tests := []struct {
		x, y, want float64
	}{
		{2, 1.5, 0},   // inside
		{0, 1.5, 1},   // left
		{4, 1.5, 1},   // right
		{2, 0, 1},     // below
		{2, 4, 4},     // above
		{0, 0, 2},     // corner (1 + 1)
		{1, 1, 0},     // on boundary
		{5, 4, 4 + 4}, // far corner
	}
	for _, tt := range tests {
		if got := r.DistSqToPoint(tt.x, tt.y); got != tt.want {
			t.Errorf("DistSq(%v, %v) = %v, want %v", tt.x, tt.y, got, tt.want)
		}
	}
}

// bruteNearest is the kNN contract stated directly: every entry, sorted by
// NeighborLess, cut to k.
func bruteNearest(entries []Entry, k int, x, y float64) []Neighbor {
	all := make([]Neighbor, len(entries))
	for i, e := range entries {
		all[i] = Neighbor{Rect: e.Rect, Ref: e.Ref, DistSq: e.Rect.DistSqToPoint(x, y)}
	}
	sort.Slice(all, func(a, b int) bool { return NeighborLess(all[a], all[b]) })
	return all[:min(k, len(all))]
}

// nodesWithin counts the nodes whose rectangle, as their parent holds it,
// lies within distSq of (x, y) — the root always — walking every node: the
// nodes an optimal kNN must read when distSq is the k-th neighbor's.
func nodesWithin(t *testing.T, tree *Tree, distSq, x, y float64) int {
	t.Helper()
	count := 0
	stack := []int{tree.RootChunk()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		n, err := tree.readNodeRegion(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.IsLeaf() {
			continue
		}
		for _, e := range n.Entries {
			if e.Rect.DistSqToPoint(x, y) <= distSq {
				stack = append(stack, int(e.Ref))
			}
		}
	}
	return count
}

// queryKNN runs a kNN(k) at (x, y) through Query, the server core's entry
// point, and decodes the items it packs.
func queryKNN(tree *Tree, k int, x, y float64) ([]wire.Item, OpStats, error) {
	packed, st, err := tree.Query(wire.KNNRequest(1, k, x, y), nil)
	if err != nil {
		return nil, st, err
	}
	items, err := wire.DecodeItems(packed, len(packed)/wire.ItemSize)
	return items, st, err
}

// sameNeighbors reports whether items are nbs' rectangles and refs, in order.
func sameNeighbors(items []wire.Item, nbs []Neighbor) bool {
	if len(items) != len(nbs) {
		return false
	}
	for i := range nbs {
		if items[i].Rect != nbs[i].Rect || items[i].Ref != nbs[i].Ref {
			return false
		}
	}
	return true
}

// TestNearestVariantsAgree is the kNN contract on a dataset that is mostly
// ties (points on a coarse grid, many coincident): Nearest and a kNN
// request through Query return exactly the brute-force NeighborLess answer
// with the same statistics, for k from 1 to 60 and past Len(), and read
// exactly the nodes whose rectangles lie within the k-th neighbor's
// distance.
func TestNearestVariantsAgree(t *testing.T) {
	tree := newTestTree(t, 4096, 16)
	rng := rand.New(rand.NewSource(21))
	entries := make([]Entry, 4000)
	for i := range entries {
		entries[i] = Entry{Rect: geo.PointRect(float64(rng.Intn(20))/20, float64(rng.Intn(20))/20), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(append([]Entry(nil), entries...), 0); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 220; trial++ {
		x, y := float64(rng.Intn(41))/40, float64(rng.Intn(41))/40
		k := 1 + rng.Intn(60)
		if trial >= 200 {
			k = len(entries) + rng.Intn(100)
		}
		want := bruteNearest(entries, k, x, y)
		got, st, err := tree.Nearest(k, x, y)
		if err != nil {
			t.Fatal(err)
		}
		served, qst, err := queryKNN(tree, k, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d neighbors, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: neighbor %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
		if !sameNeighbors(served, want) {
			t.Fatalf("trial %d: Query's %d items differ from the %d neighbors", trial, len(served), len(want))
		}
		if qst != st || st.Results != len(want) {
			t.Fatalf("trial %d: stats %+v / %+v, want %d results", trial, st, qst, len(want))
		}
		bound := math.Inf(1)
		if len(want) == k {
			bound = want[k-1].DistSq
		}
		if optimal := nodesWithin(t, tree, bound, x, y); st.NodesRead != optimal {
			t.Fatalf("trial %d (k=%d): read %d nodes, %d lie within the k-th distance", trial, k, st.NodesRead, optimal)
		}
	}
	if _, _, err := queryKNN(tree, 0, 0, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("Query k=0 err = %v", err)
	}
}

// BenchmarkNearest times a kNN(10) at uniform random points on 200k bulk-
// loaded items, through Nearest and through Query.
func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	tree, _ := bulkLoadedTree(b, rng, 0)
	pts := make([][2]float64, 1024)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	b.Run("Nearest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			if _, _, err := tree.Nearest(10, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Query", func(b *testing.B) {
		var items []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			var err error
			if items, _, err = tree.Query(wire.KNNRequest(1, 10, p[0], p[1]), items[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
