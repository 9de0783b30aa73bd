package rtree

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
)

// newTestTree returns a tree over a fresh region with the given fan-out.
func newTestTree(t testing.TB, nchunks, maxEntries int) *Tree {
	t.Helper()
	reg, err := region.New(nchunks, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(reg, Config{MaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func uniformRect(rng *rand.Rand, maxEdge float64) geo.Rect {
	w, h := rng.Float64()*maxEdge, rng.Float64()*maxEdge
	x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
	return geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h}
}

func TestNewValidatesConfig(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"defaults", Config{}, false},
		{"explicit", Config{MaxEntries: 16}, false},
		{"tooSmallMax", Config{MaxEntries: 2}, true},
		{"overCapacity", Config{MaxEntries: 1000}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reg, err := region.New(4, 4096)
			if err != nil {
				t.Fatal(err)
			}
			_, err = New(reg, tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%+v) err = %v", tt.cfg, err)
			}
		})
	}
	// m is derived: 40 % of M, rounded down.
	if tree := newTestTree(t, 4, 16); tree.MinEntries() != 6 {
		t.Errorf("MaxEntries 16: MinEntries = %d, want 6", tree.MinEntries())
	}
}

func TestEmptyTree(t *testing.T) {
	tree := newTestTree(t, 8, 8)
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Errorf("Len=%d Height=%d", tree.Len(), tree.Height())
	}
	got, st, err := tree.SearchCollect(geo.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || st.Results != 0 {
		t.Errorf("empty search found %d", len(got))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	ok, _, err := tree.Delete(geo.PointRect(0.5, 0.5), 1)
	if err != nil || ok {
		t.Errorf("delete on empty = %v, %v", ok, err)
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tree := newTestTree(t, 16, 8)
	rects := []geo.Rect{
		geo.NewRect(0.1, 0.1, 0.2, 0.2),
		geo.NewRect(0.15, 0.15, 0.3, 0.3),
		geo.NewRect(0.7, 0.7, 0.8, 0.8),
		geo.NewRect(0.0, 0.9, 0.05, 0.95),
	}
	for i, r := range rects {
		if _, err := tree.Insert(r, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 4 {
		t.Errorf("Len = %d", tree.Len())
	}
	// A query overlapping the first two only (Fig 3a's two-path search).
	got, _, err := tree.SearchCollect(geo.NewRect(0.12, 0.12, 0.18, 0.18))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d items, want 2: %v", len(got), got)
	}
	refs := map[uint64]bool{got[0].Ref: true, got[1].Ref: true}
	if !refs[0] || !refs[1] {
		t.Errorf("wrong refs: %v", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertInvalidRect(t *testing.T) {
	tree := newTestTree(t, 8, 8)
	if _, err := tree.Insert(geo.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}, 1); !errors.Is(err, ErrInvalidRect) {
		t.Errorf("err = %v, want ErrInvalidRect", err)
	}
	if _, err := tree.Search(geo.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}, nil); !errors.Is(err, ErrInvalidRect) {
		t.Errorf("search err = %v", err)
	}
	if _, _, err := tree.Delete(geo.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}, 1); !errors.Is(err, ErrInvalidRect) {
		t.Errorf("delete err = %v", err)
	}
}

func TestSplitGrowsHeightRootStable(t *testing.T) {
	tree := newTestTree(t, 64, 8)
	root := tree.RootChunk()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if _, err := tree.Insert(uniformRect(rng, 0.05), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 2 {
		t.Errorf("height = %d after 100 inserts with M=8", tree.Height())
	}
	if tree.RootChunk() != root {
		t.Errorf("root chunk moved: %d -> %d", root, tree.RootChunk())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tree := newTestTree(t, 64, 8)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		if _, err := tree.Insert(uniformRect(rng, 0.5), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	_, err := tree.Search(geo.NewRect(0, 0, 1, 1), func(geo.Rect, uint64) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("early stop made %d calls, want 3", calls)
	}
}

func TestDuplicateEntries(t *testing.T) {
	tree := newTestTree(t, 32, 8)
	r := geo.NewRect(0.4, 0.4, 0.5, 0.5)
	for i := 0; i < 3; i++ {
		if _, err := tree.Insert(r, 7); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tree.SearchCollect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("found %d duplicates, want 3", len(got))
	}
	// Delete removes exactly one at a time.
	ok, _, err := tree.Delete(r, 7)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	got, _, _ = tree.SearchCollect(r)
	if len(got) != 2 {
		t.Errorf("after delete found %d, want 2", len(got))
	}
}

// bruteForce is the oracle for randomized comparison tests.
type bruteForce struct {
	entries []Entry
}

func (b *bruteForce) insert(r geo.Rect, ref uint64) {
	b.entries = append(b.entries, Entry{Rect: r, Ref: ref})
}

func (b *bruteForce) delete(r geo.Rect, ref uint64) bool {
	for i, e := range b.entries {
		if e.Ref == ref && e.Rect.Equal(r) {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return true
		}
	}
	return false
}

func (b *bruteForce) search(q geo.Rect) map[uint64]int {
	out := map[uint64]int{}
	for _, e := range b.entries {
		if q.Intersects(e.Rect) {
			out[e.Ref]++
		}
	}
	return out
}

func sameResults(got []Entry, want map[uint64]int) bool {
	gm := map[uint64]int{}
	for _, e := range got {
		gm[e.Ref]++
	}
	if len(gm) != len(want) {
		return false
	}
	for k, v := range want {
		if gm[k] != v {
			return false
		}
	}
	return true
}

func TestRandomizedAgainstBruteForce(t *testing.T) {
	tree := newTestTree(t, 4096, 8)
	oracle := &bruteForce{}
	rng := rand.New(rand.NewSource(42))
	nextRef := uint64(0)
	live := make([]Entry, 0, 2048)

	for step := 0; step < 3000; step++ {
		op := rng.Float64()
		switch {
		case op < 0.6 || len(live) == 0: // insert
			r := uniformRect(rng, 0.1)
			ref := nextRef
			nextRef++
			if _, err := tree.Insert(r, ref); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			oracle.insert(r, ref)
			live = append(live, Entry{Rect: r, Ref: ref})
		case op < 0.75: // delete existing
			i := rng.Intn(len(live))
			e := live[i]
			ok, _, err := tree.Delete(e.Rect, e.Ref)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if !ok {
				t.Fatalf("step %d: delete of live entry %v failed", step, e)
			}
			if !oracle.delete(e.Rect, e.Ref) {
				t.Fatalf("oracle desync at step %d", step)
			}
			live = append(live[:i], live[i+1:]...)
		case op < 0.8: // delete nonexistent
			ok, _, err := tree.Delete(uniformRect(rng, 0.01), 1<<60)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if ok {
				t.Fatalf("step %d: deleted nonexistent entry", step)
			}
		default: // search
			q := uniformRect(rng, rng.Float64()*0.3)
			got, _, err := tree.SearchCollect(q)
			if err != nil {
				t.Fatalf("step %d search: %v", step, err)
			}
			if !sameResults(got, oracle.search(q)) {
				t.Fatalf("step %d: search results diverge for %v", step, q)
			}
		}
		if step%500 == 499 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tree.Len() != len(oracle.entries) {
				t.Fatalf("step %d: Len %d != oracle %d", step, tree.Len(), len(oracle.entries))
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	tree := newTestTree(t, 1024, 8)
	rng := rand.New(rand.NewSource(11))
	var entries []Entry
	for i := 0; i < 500; i++ {
		r := uniformRect(rng, 0.05)
		entries = append(entries, Entry{Rect: r, Ref: uint64(i)})
		if _, err := tree.Insert(r, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocAfterInsert := tree.Region().Allocated()
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for i, e := range entries {
		ok, _, err := tree.Delete(e.Rect, e.Ref)
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("delete %d: entry not found", i)
		}
		if i%100 == 99 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tree.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tree.Len())
	}
	if tree.Height() != 1 {
		t.Errorf("Height = %d after deleting all, want 1", tree.Height())
	}
	// All chunks except the root must be back on the free list.
	if got := tree.Region().Allocated(); got != 1 {
		t.Errorf("allocated chunks = %d (was %d), want 1 (root)", got, allocAfterInsert)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOpStats(t *testing.T) {
	tree := newTestTree(t, 256, 8)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		st, err := tree.Insert(uniformRect(rng, 0.02), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if st.NodesRead == 0 || st.NodesWritten == 0 {
			t.Fatalf("insert %d reported no work: %+v", i, st)
		}
	}
	st, err := tree.Search(geo.NewRect(0, 0, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != 200 {
		t.Errorf("full search results = %d", st.Results)
	}
	shape, err := tree.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesRead != shape.Nodes {
		t.Errorf("full search read %d nodes, tree has %d", st.NodesRead, shape.Nodes)
	}
	if shape.Items != 200 || shape.Height != tree.Height() {
		t.Errorf("shape = %+v", shape)
	}
}

// TestCheckInvariantsCatchesMissingCacheSlot: every tree read is served
// from the node cache, so a reachable chunk missing from it is an
// incoherence CheckInvariants reports, not one it skips.
func TestCheckInvariantsCatchesMissingCacheSlot(t *testing.T) {
	tree := newTestTree(t, 512, 8)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 400; i++ {
		if _, err := tree.Insert(uniformRect(rng, 0.05), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	root, err := tree.load(tree.RootChunk())
	if err != nil {
		t.Fatal(err)
	}
	child := int(root.Entries[len(root.Entries)-1].Ref)
	tree.cache[child] = nil
	if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "cache incoherent") {
		t.Fatalf("CheckInvariants with chunk %d missing from the cache = %v, want an incoherence error", child, err)
	}
}

func mustNewRegion(t testing.TB, nchunks int) *region.Region {
	t.Helper()
	reg, err := region.New(nchunks, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegionExhaustion(t *testing.T) {
	reg := mustNewRegion(t, 2) // root + 1 spare: first split must fail cleanly
	tree, err := New(reg, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sawErr bool
	for i := 0; i < 50; i++ {
		if _, err := tree.Insert(uniformRect(rng, 0.1), uint64(i)); err != nil {
			if !errors.Is(err, region.ErrOutOfChunks) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("expected ErrOutOfChunks when region fills up")
	}
}

func TestVisitRects(t *testing.T) {
	tree := newTestTree(t, 256, 8)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		if _, err := tree.Insert(uniformRect(rng, 0.05), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	if err := tree.visitRects(func(_ geo.Rect, ref uint64) { seen[ref] = true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Errorf("visited %d refs, want 100", len(seen))
	}
}

func BenchmarkInsertUniform(b *testing.B) {
	reg, err := region.New(b.N*2+1024, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := New(reg, Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rects := make([]geo.Rect, b.N)
	for i := range rects {
		rects[i] = uniformRect(rng, 0.0001)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Insert(rects[i], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSmallScope(b *testing.B) {
	tree := newTestTree(b, 8192, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		if _, err := tree.Insert(uniformRect(rng, 0.0001), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]geo.Rect, 1024)
	for i := range queries {
		queries[i] = uniformRect(rng, 0.00001)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Search(queries[i%len(queries)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkLoadedTree returns a 200k-object tree bulk-loaded 90 % full — the
// state the serving benchmarks write into — with room for extra more items,
// and the loaded entries.
func bulkLoadedTree(t testing.TB, rng *rand.Rand, extra int) (*Tree, []Entry) {
	t.Helper()
	const loaded = 200_000
	tree := newTestTree(t, (loaded+extra)/20+64, 0)
	entries := make([]Entry, loaded)
	for i := range entries {
		entries[i] = Entry{Rect: uniformRect(rng, 1e-4), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(entries, 0); err != nil {
		t.Fatal(err)
	}
	return tree, entries
}

// nudge returns r shifted by up to span/2 along each axis (x drawn first),
// clamped to the unit square: one step of a moving object.
func nudge(rng *rand.Rand, r geo.Rect, span float64) geo.Rect {
	dx, dy := (rng.Float64()-0.5)*span, (rng.Float64()-0.5)*span
	w, h := r.Width(), r.Height()
	x, y := min(max(r.MinX+dx, 0), 1-w), min(max(r.MinY+dy, 0), 1-h)
	return geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h}
}

func BenchmarkInsertBulkLoaded(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tree, entries := bulkLoadedTree(b, rng, b.N)
	rects := make([]geo.Rect, b.N)
	for i := range rects {
		rects[i] = uniformRect(rng, 1e-4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Insert(rects[i], uint64(len(entries)+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoveBulkLoaded times the delete + insert pair of a MOVE: a random
// object steps up to 1e-3 away, as in the moving-fleet workload.
func BenchmarkMoveBulkLoaded(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tree, entries := bulkLoadedTree(b, rng, 0)
	written := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &entries[rng.Intn(len(entries))]
		ok, st, err := tree.Delete(e.Rect, e.Ref)
		if err != nil || !ok {
			b.Fatalf("delete: ok=%v err=%v", ok, err)
		}
		written += st.NodesWritten
		e.Rect = nudge(rng, e.Rect, 2e-3)
		if st, err = tree.Insert(e.Rect, e.Ref); err != nil {
			b.Fatal(err)
		}
		written += st.NodesWritten
	}
	b.ReportMetric(float64(written)/float64(b.N), "nodes-written/op")
}

// MinEntries returns the configured underflow bound m.
func (t *Tree) MinEntries() int { return t.minEntries }
