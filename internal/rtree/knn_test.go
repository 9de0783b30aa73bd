package rtree

import (
	"container/heap"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
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

// refHeap is container/heap over knnItem: the queue Nearest used before its
// heap was written out for the element type, kept here as the reference for
// pop order — which, among equal distances, decides which entries a kNN
// returns and in what order.
type refHeap []knnItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].distSq < h[j].distSq }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(knnItem)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

func refNearest(t *Tree, k int, x, y float64) []Neighbor {
	var pq refHeap
	heap.Push(&pq, knnItem{chunk: t.rootChunk})
	var out []Neighbor
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(&pq).(knnItem)
		if it.isItem {
			out = append(out, Neighbor{Rect: it.entry.Rect, Ref: it.entry.Ref, DistSq: it.distSq})
			continue
		}
		n := t.cache[it.chunk]
		for _, e := range n.Entries {
			child := knnItem{distSq: e.Rect.DistSqToPoint(x, y)}
			if n.IsLeaf() {
				child.isItem, child.entry = true, e
			} else {
				child.chunk = int(e.Ref)
			}
			heap.Push(&pq, child)
		}
	}
	return out
}

// TestNearestVariantsAgree: Nearest, NearestShared and the container/heap
// reference return the same neighbors in the same order — including on a
// dataset that is mostly ties (points on a coarse grid, many coincident).
func TestNearestVariantsAgree(t *testing.T) {
	tree := newTestTree(t, 4096, 16)
	rng := rand.New(rand.NewSource(21))
	entries := make([]Entry, 4000)
	for i := range entries {
		entries[i] = Entry{Rect: geo.PointRect(float64(rng.Intn(20))/20, float64(rng.Intn(20))/20), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(entries, 0); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		x, y := float64(rng.Intn(41))/40, float64(rng.Intn(41))/40
		k := 1 + rng.Intn(60)
		want := refNearest(tree, k, x, y)
		got, st, err := tree.Nearest(k, x, y)
		if err != nil {
			t.Fatal(err)
		}
		var shared []Neighbor
		sst, err := tree.NearestShared(k, x, y, func(n Neighbor) { shared = append(shared, n) })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(shared) != len(want) {
			t.Fatalf("trial %d: %d / %d neighbors, want %d", trial, len(got), len(shared), len(want))
		}
		for i := range want {
			if got[i] != want[i] || shared[i] != want[i] {
				t.Fatalf("trial %d: neighbor %d = %+v / %+v, want %+v", trial, i, got[i], shared[i], want[i])
			}
		}
		if sst != st {
			t.Fatalf("trial %d: stats %+v vs %+v", trial, sst, st)
		}
	}
	if _, err := tree.NearestShared(0, 0, 0, func(Neighbor) {}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
}
