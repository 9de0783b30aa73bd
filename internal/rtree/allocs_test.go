//go:build !race

// Race instrumentation allocates on its own; the zero-allocation assertions
// on the shared read paths only run in non-race builds.
package rtree

import (
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

// TestSharedReadsZeroAlloc: under a shared latch the tree's own part of a
// point search, a 500-result scan and a warmed kNN(10) allocates nothing —
// the traversal stack is array-backed and the kNN queue pooled.
func TestSharedReadsZeroAlloc(t *testing.T) {
	tree := newTestTree(t, 1<<13, 0)
	rng := rand.New(rand.NewSource(8))
	entries := make([]Entry, 200_000)
	for i := range entries {
		entries[i] = Entry{Rect: uniformRect(rng, 1e-4), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(entries, 0); err != nil {
		t.Fatal(err)
	}
	results := 0
	count := func(geo.Rect, uint64) bool { results++; return true }
	for _, tc := range []struct {
		name string
		edge float64
	}{{"point", 0.002}, {"scan", 0.05}} {
		q := geo.Rect{MinX: 0.4, MaxX: 0.4 + tc.edge, MinY: 0.4, MaxY: 0.4 + tc.edge}
		results = 0
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := tree.SearchShared(q, count); err != nil {
				t.Error(err)
			}
		}); allocs != 0 {
			t.Errorf("%s SearchShared allocates %.1f objects/op, want 0", tc.name, allocs)
		}
		t.Logf("%s: %d results per search", tc.name, results/101)
	}
	near := func(Neighbor) { results++ }
	if _, err := tree.NearestShared(10, 0.5, 0.5, near); err != nil { // warms the queue pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := tree.NearestShared(10, 0.5, 0.5, near); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("NearestShared(10) allocates %.1f objects/op, want 0", allocs)
	}
}
