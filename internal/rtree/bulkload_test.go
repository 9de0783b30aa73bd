package rtree

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

func TestBulkLoadSmall(t *testing.T) {
	tree := newTestTree(t, 16, 8)
	items := []Entry{
		{Rect: geo.NewRect(0.1, 0.1, 0.2, 0.2), Ref: 1},
		{Rect: geo.NewRect(0.6, 0.6, 0.7, 0.7), Ref: 2},
	}
	before := slices.Clone(items)
	if err := tree.BulkLoad(items, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(items, before) {
		t.Errorf("BulkLoad modified items: %v, was %v", items, before)
	}
	if tree.Len() != 2 || tree.Height() != 1 {
		t.Errorf("Len=%d Height=%d", tree.Len(), tree.Height())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	got, _, err := tree.SearchCollect(geo.NewRect(0, 0, 0.3, 0.3))
	if err != nil || len(got) != 1 || got[0].Ref != 1 {
		t.Errorf("search = %v, %v", got, err)
	}
}

func TestBulkLoadEmptyItems(t *testing.T) {
	tree := newTestTree(t, 16, 8)
	if err := tree.BulkLoad(nil, 0); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Error("empty bulk load should leave empty tree")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tree := newTestTree(t, 16, 8)
	if _, err := tree.Insert(geo.PointRect(0.5, 0.5), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad([]Entry{{Rect: geo.PointRect(0.1, 0.1)}}, 0); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("err = %v, want ErrNotEmpty", err)
	}
}

func TestBulkLoadRejectsInvalid(t *testing.T) {
	tree := newTestTree(t, 16, 8)
	bad := []Entry{{Rect: geo.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}}}
	if err := tree.BulkLoad(bad, 0); !errors.Is(err, ErrInvalidRect) {
		t.Errorf("err = %v, want ErrInvalidRect", err)
	}
	good := []Entry{{Rect: geo.PointRect(0.1, 0.1)}}
	if err := tree.BulkLoad(good, 1.5); err == nil {
		t.Error("fill factor > 1 should error")
	}
}

func TestBulkLoadLargeMatchesBruteForce(t *testing.T) {
	tree := newTestTree(t, 4096, 16)
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	items := make([]Entry, n)
	oracle := &bruteForce{}
	for i := range items {
		r := uniformRect(rng, 0.01)
		items[i] = Entry{Rect: r, Ref: uint64(i)}
		oracle.insert(r, uint64(i))
	}
	before := slices.Clone(items)
	if err := tree.BulkLoad(items, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(items, before) {
		t.Fatal("BulkLoad modified items")
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := uniformRect(rng, rng.Float64()*0.1)
		got, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, oracle.search(q)) {
			t.Fatalf("query %d results diverge", i)
		}
	}
	// The loaded tree must accept further inserts and deletes.
	for i := 0; i < 200; i++ {
		r := uniformRect(rng, 0.01)
		if _, err := tree.Insert(r, uint64(n+i)); err != nil {
			t.Fatal(err)
		}
		oracle.insert(r, uint64(n+i))
	}
	for i := 0; i < 100; i++ {
		e := oracle.entries[rng.Intn(len(oracle.entries))]
		ok, _, err := tree.Delete(e.Rect, e.Ref)
		if err != nil || !ok {
			t.Fatalf("delete after bulk load: %v %v", ok, err)
		}
		oracle.delete(e.Rect, e.Ref)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geo.NewRect(0.2, 0.2, 0.8, 0.8)
	got, _, _ := tree.SearchCollect(q)
	if !sameResults(got, oracle.search(q)) {
		t.Fatal("post-mutation search diverges")
	}
}

func TestBulkLoadFillFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := make([]Entry, 5000)
	for i := range items {
		items[i] = Entry{Rect: uniformRect(rng, 0.01), Ref: uint64(i)}
	}
	for _, ff := range []float64{0.5, 0.7, 0.9, 1.0} {
		tree := newTestTree(t, 2048, 16)
		local := append([]Entry(nil), items...)
		if err := tree.BulkLoad(local, ff); err != nil {
			t.Fatalf("ff=%v: %v", ff, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("ff=%v: %v", ff, err)
		}
	}
}

// refSTRTile is strTile before the radix sort: it pdqsorts the entries
// themselves (in place) through center comparators. On distinct center keys
// every correct sort yields one permutation, so strTile must return the same
// groups; on ties pdqsort's order is arbitrary and only strTile's is
// specified (TestBulkLoadTies).
func refSTRTile(entries []Entry, capPerNode, minEntries int) [][]Entry {
	n := len(entries)
	p := (n + capPerNode - 1) / capPerNode
	s := int(math.Ceil(math.Sqrt(float64(p))))
	sliceSize := s * capPerNode

	slices.SortFunc(entries, func(a, b Entry) int {
		ax := a.Rect.MinX + a.Rect.MaxX
		bx := b.Rect.MinX + b.Rect.MaxX
		switch {
		case ax < bx:
			return -1
		case ax > bx:
			return 1
		default:
			return 0
		}
	})
	groups := make([][]Entry, 0, p)
	for start := 0; start < n; start += sliceSize {
		slice := entries[start:min(start+sliceSize, n)]
		slices.SortFunc(slice, func(a, b Entry) int {
			ay := a.Rect.MinY + a.Rect.MaxY
			by := b.Rect.MinY + b.Rect.MaxY
			switch {
			case ay < by:
				return -1
			case ay > by:
				return 1
			default:
				return 0
			}
		})
		sliceStart := len(groups)
		for gs := 0; gs < len(slice); gs += capPerNode {
			groups = append(groups, append([]Entry(nil), slice[gs:min(gs+capPerNode, len(slice))]...))
		}
		if last := len(groups) - 1; len(groups[last]) < minEntries && last > sliceStart {
			rebalance(groups, last)
		}
	}
	if last := len(groups) - 1; len(groups) > 1 && len(groups[last]) < minEntries {
		rebalance(groups, last)
	}
	return groups
}

func xKey(e Entry) uint64 { return centerKey(e.Rect.MinX + e.Rect.MaxX) }
func yKey(e Entry) uint64 { return centerKey(e.Rect.MinY + e.Rect.MaxY) }

// TestSTRTileMatchesReference: on random inputs whose center keys are all
// distinct, strTile returns refSTRTile's groups entry for entry and leaves
// its input alone. With capPerNode 10 and minEntries 4 the named sizes hit
// every branch: 3 and 10 fit one group, 11 leaves a 1-entry trailing run in
// its only slice, 19 and 20 fill s = 2 slices' worth minus one and exactly,
// 21 and 22 put a lone undersized group in a final slice of its own, 31 and
// 92 leave a short trailing run inside a later slice. The sweep and the
// large sizes cover everything in between at the default fan-out. Each size
// runs on uniform rectangles and on points whose centers differ only in
// their low 16 mantissa bits — the bits sortByKey gives up to the index and
// must order after the radix sort.
func TestSTRTileMatchesReference(t *testing.T) {
	type shape struct{ n, capPerNode, minEntries int }
	var shapes []shape
	for _, n := range []int{3, 10, 11, 19, 20, 21, 22, 31, 92} {
		shapes = append(shapes, shape{n, 10, 4})
	}
	for n := 1; n <= 300; n++ {
		shapes = append(shapes, shape{n, 6, 3})
	}
	shapes = append(shapes, shape{5_000, 57, 25}, shape{30_000, 57, 25}, shape{30_000, 64, 25})
	rng := rand.New(rand.NewSource(26))
	gens := []struct {
		name string
		rect func() geo.Rect
	}{
		{"uniform", func() geo.Rect { return uniformRect(rng, 1e-3) }},
		{"low-bits", func() geo.Rect {
			// Center sums 1 + j·2⁻⁵² and 0.5 + k·2⁻⁵³.
			x, y := 0.5+float64(rng.Intn(1<<16))*0x1p-53, 0.25+float64(rng.Intn(1<<16))*0x1p-54
			return geo.Rect{MinX: x, MaxX: x, MinY: y, MaxY: y}
		}},
	}
	for _, gen := range gens {
		for _, sh := range shapes {
			items := make([]Entry, sh.n)
			xs := make(map[uint64]bool, sh.n)
			ys := make(map[uint64]bool, sh.n)
			for i := range items {
				e := Entry{Rect: gen.rect(), Ref: uint64(i)}
				for xs[xKey(e)] || ys[yKey(e)] {
					e.Rect = gen.rect()
				}
				items[i] = e
				xs[xKey(e)], ys[yKey(e)] = true, true
			}
			before := slices.Clone(items)
			got := strTile(items, sh.capPerNode, sh.minEntries)
			want := refSTRTile(slices.Clone(items), sh.capPerNode, sh.minEntries)
			if !slices.Equal(items, before) {
				t.Fatalf("%s %+v: strTile modified its input", gen.name, sh)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d groups, reference %d", gen.name, sh, len(got), len(want))
			}
			for g := range want {
				if !slices.Equal(got[g], want[g]) {
					t.Fatalf("%s %+v: group %d = %v, reference %v", gen.name, sh, g, got[g], want[g])
				}
			}
		}
	}
}

// TestBulkLoadTies pins strTile's contract on datasets that are mostly
// ties — points on a 20×20 grid, about ten per point, once at 1/20 spacing
// and once 2⁻⁵⁰ apart, where every center key also agrees above the index
// bits sortByKey packs beside it. The groups are a permutation of the
// input, each of m..capPerNode entries; cut into STR slices, the slices
// ascend by x key and each slice ascends by y key, and tied entries keep
// their order — input order for x, x order for y. The tree BulkLoad builds
// from the same data passes CheckInvariants and a brute force search, and
// items is left as it was.
func TestBulkLoadTies(t *testing.T) {
	for _, step := range []float64{1.0 / 20, 0x1p-50} {
		rng := rand.New(rand.NewSource(21))
		items := make([]Entry, 4000)
		oracle := &bruteForce{}
		for i := range items {
			x, y := 0.25+float64(rng.Intn(20))*step, 0.25+float64(rng.Intn(20))*step
			items[i] = Entry{Rect: geo.PointRect(x, y), Ref: uint64(i)}
			oracle.insert(items[i].Rect, items[i].Ref)
		}
		tree := newTestTree(t, 4096, 16)
		capPerNode, m := int(0.9*float64(tree.MaxEntries())), tree.MinEntries()

		groups := strTile(items, capPerNode, m)
		var flat []Entry
		for i, g := range groups {
			if len(g) < m || len(g) > capPerNode {
				t.Fatalf("step %g: group %d has %d entries, want %d..%d", step, i, len(g), m, capPerNode)
			}
			flat = append(flat, g...)
		}
		seen := make([]bool, len(items))
		for _, e := range flat {
			if e.Ref >= uint64(len(items)) || seen[e.Ref] || e != items[e.Ref] {
				t.Fatalf("step %g: groups are not a permutation of the input: %v", step, e)
			}
			seen[e.Ref] = true
		}
		if len(flat) != len(items) {
			t.Fatalf("step %g: groups hold %d entries, input %d", step, len(flat), len(items))
		}
		// byX is the x order: x key, then input position.
		byX := func(a, b Entry) bool { return xKey(a) < xKey(b) || xKey(a) == xKey(b) && a.Ref < b.Ref }
		p := (len(items) + capPerNode - 1) / capPerNode
		sliceSize := int(math.Ceil(math.Sqrt(float64(p)))) * capPerNode
		var prevMax Entry
		for start := 0; start < len(flat); start += sliceSize {
			slice := flat[start:min(start+sliceSize, len(flat))]
			minX, maxX := slice[0], slice[0]
			for i, e := range slice {
				if byX(e, minX) {
					minX = e
				}
				if byX(maxX, e) {
					maxX = e
				}
				if i == 0 {
					continue
				}
				a := slice[i-1]
				if yKey(a) > yKey(e) || yKey(a) == yKey(e) && !byX(a, e) {
					t.Fatalf("step %g: slice at %d: entry %d (%v) out of y order after %v", step, start, i, e, a)
				}
			}
			if start > 0 && !byX(prevMax, minX) {
				t.Fatalf("step %g: slice at %d starts at %v, not after the previous slice's %v", step, start, minX, prevMax)
			}
			prevMax = maxX
		}

		before := slices.Clone(items)
		if err := tree.BulkLoad(items, 0); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(items, before) {
			t.Fatalf("step %g: BulkLoad modified items", step)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("step %g: %v", step, err)
		}
		for i := 0; i < 100; i++ {
			a, b := items[rng.Intn(len(items))].Rect, items[rng.Intn(len(items))].Rect
			q := geo.NewRect(min(a.MinX, b.MinX), min(a.MinY, b.MinY), max(a.MaxX, b.MaxX), max(a.MaxY, b.MaxY))
			got, _, err := tree.SearchCollect(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(got, oracle.search(q)) {
				t.Fatalf("step %g: query %v: results diverge from brute force", step, q)
			}
		}
	}
}

// TestCenterKeyOrder: centerKey's unsigned order is the float order, with
// -0 and +0 equal as the comparators had them.
func TestCenterKeyOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 1.5, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if centerKey(vals[i-1]) >= centerKey(vals[i]) {
			t.Errorf("centerKey(%v) >= centerKey(%v)", vals[i-1], vals[i])
		}
	}
	if centerKey(math.Copysign(0, -1)) != centerKey(0) {
		t.Error("centerKey(-0) != centerKey(+0)")
	}
}

func BenchmarkBulkLoad100k(b *testing.B) { benchmarkBulkLoad(b, 100_000) }

func BenchmarkBulkLoad1M(b *testing.B) { benchmarkBulkLoad(b, 1_000_000) }

// benchmarkBulkLoad times BulkLoad of n uniform rectangles (the benchmark's
// 1e-4 edge bound) into a fresh tree; region set-up is outside the timer.
func benchmarkBulkLoad(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Entry, n)
	for i := range items {
		items[i] = Entry{Rect: uniformRect(rng, 0.0001), Ref: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := newTestTree(b, n/40+4096, 0)
		b.StartTimer()
		if err := tree.BulkLoad(items, 0); err != nil {
			b.Fatal(err)
		}
	}
}
