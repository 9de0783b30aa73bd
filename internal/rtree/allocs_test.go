//go:build !race

// Race instrumentation allocates on its own; the zero-allocation assertions
// on the shared read paths only run in non-race builds.
package rtree

import (
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

const raceBuild = false

// TestSharedReadsZeroAlloc: under a shared latch the tree's own part of a
// point search, a 500-result scan and a warmed kNN(10) allocates nothing,
// called directly (Search) or as the server core calls it (Query) — the
// traversal stack is array-backed and the kNN scratch pooled.
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
	items := make([]byte, 0, 1024*wire.ItemSize)
	query := func(name string, req wire.Request) {
		if _, _, err := tree.Query(req, items); err != nil { // warms the kNN scratch pool
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := tree.Query(req, items[:0]); err != nil {
				t.Error(err)
			}
		}); allocs != 0 {
			t.Errorf("%s Query allocates %.1f objects/op, want 0", name, allocs)
		}
	}
	for _, tc := range []struct {
		name string
		edge float64
	}{{"point", 0.002}, {"scan", 0.05}} {
		q := geo.Rect{MinX: 0.4, MaxX: 0.4 + tc.edge, MinY: 0.4, MaxY: 0.4 + tc.edge}
		results = 0
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := tree.Search(q, count); err != nil {
				t.Error(err)
			}
		}); allocs != 0 {
			t.Errorf("%s Search allocates %.1f objects/op, want 0", tc.name, allocs)
		}
		t.Logf("%s: %d results per search", tc.name, results/101)
		query(tc.name, wire.Request{Type: wire.MsgSearch, Rect: q})
	}
	query("kNN(10)", wire.KNNRequest(1, 10, 0.5, 0.5))
}

// TestNearestOneAlloc: a warmed Nearest(10) allocates one object, the slice
// it returns — its queue and candidate heap come from the pool Query's kNN
// draws on.
func TestNearestOneAlloc(t *testing.T) {
	tree, _ := bulkLoadedTree(t, rand.New(rand.NewSource(11)), 0)
	if _, _, err := tree.Nearest(10, 0.5, 0.5); err != nil { // warms the scratch pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := tree.Nearest(10, 0.5, 0.5); err != nil {
			t.Error(err)
		}
	}); allocs != 1 {
		t.Errorf("Nearest(10) allocates %.1f objects/op, want 1", allocs)
	}
}

// TestWritesZeroAlloc: an Insert that overflows no node and a Delete that
// underflows none — the two halves of a steady-state MOVE — allocate nothing:
// the descent path, the ChooseSubtree candidates and their sort, the node
// encoding and the region publish all run in tree-held scratch.
func TestWritesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree, entries := bulkLoadedTree(t, rng, 0)
	// The same few objects come and go, so no leaf fills up or drains and,
	// after the first round, no leaf's entry slice grows.
	extra := make([]Entry, 16)
	for i := range extra {
		extra[i] = Entry{Rect: uniformRect(rng, 1e-4), Ref: uint64(len(entries) + i)}
	}
	var written OpStats
	round := func(insert bool) func() {
		i := 0
		return func() {
			e := extra[i%len(extra)]
			i++
			if insert {
				st, err := tree.Insert(e.Rect, e.Ref)
				if err != nil {
					t.Error(err)
				}
				written.add(st)
			} else if ok, st, err := tree.Delete(e.Rect, e.Ref); err != nil || !ok {
				t.Errorf("delete ref %d: ok=%v err=%v", e.Ref, ok, err)
			} else {
				written.add(st)
			}
		}
	}
	for warm := 0; warm < 2; warm++ {
		for _, insert := range []bool{true, false} {
			op := round(insert)
			for range extra {
				op()
			}
		}
	}
	nodes := tree.reg.Allocated()
	// AllocsPerRun calls the function runs+1 times: one pass over extra.
	if allocs := testing.AllocsPerRun(len(extra)-1, round(true)); allocs != 0 {
		t.Errorf("Insert allocates %.2f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(len(extra)-1, round(false)); allocs != 0 {
		t.Errorf("Delete allocates %.2f objects/op, want 0", allocs)
	}
	if tree.reg.Allocated() != nodes {
		t.Errorf("a node split or condensed during the measured ops (%d → %d nodes)", nodes, tree.reg.Allocated())
	}
	t.Logf("%d nodes read, %d written by the warm-up and measured ops", written.NodesRead, written.NodesWritten)
}

// TestRelocateInPlaceZeroAlloc: a MOVE that stays inside its leaf — found
// once, overwritten, the one leaf republished — allocates nothing.
func TestRelocateInPlaceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tree, entries := bulkLoadedTree(t, rng, 0)
	e, _, mbr := interiorEntry(t, tree, entries)
	w, h := e.Rect.Width(), e.Rect.Height()
	at := e.Rect
	step := 0
	if allocs := testing.AllocsPerRun(200, func() {
		step++
		f := 0.2 + 0.6*float64(step%7)/7
		x, y := mbr.MinX+f*(mbr.Width()-w), mbr.MinY+f*(mbr.Height()-h)
		to := geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h}
		if how, _, err := tree.Relocate(at, to, e.Ref); err != nil || how != RelocateInPlace {
			t.Errorf("relocate: outcome %d, err %v", how, err)
		}
		at = to
	}); allocs != 0 {
		t.Errorf("in-place Relocate allocates %.2f objects/op, want 0", allocs)
	}
}
