package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

// refDecodeNode is DecodeNode as it stood before the field-wise rewrite:
// each entry built as a struct value and copied into its slot. It is the
// oracle for what the decoder must return.
func refDecodeNode(payload []byte, n *Node, maxEntries int) error {
	if len(payload) < headerSize {
		return fmt.Errorf("%w: short header (%d bytes)", ErrCorruptNode, len(payload))
	}
	level := binary.LittleEndian.Uint32(payload[0:])
	count := binary.LittleEndian.Uint32(payload[4:])
	if level > 64 {
		return fmt.Errorf("%w: level %d", ErrCorruptNode, level)
	}
	limit := (len(payload) - headerSize) / EntrySize
	if int(count) > limit || (maxEntries > 0 && int(count) > maxEntries+1) {
		return fmt.Errorf("%w: count %d exceeds capacity", ErrCorruptNode, count)
	}
	n.Level = int(level)
	if cap(n.Entries) < int(count) {
		n.Entries = make([]Entry, count)
	}
	n.Entries = n.Entries[:count]
	off := headerSize
	for i := range n.Entries {
		n.Entries[i] = Entry{
			Rect: geo.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+0:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+24:])),
			},
			Ref: binary.LittleEndian.Uint64(payload[off+32:]),
		}
		off += EntrySize
	}
	return nil
}

// sameEntries reports whether a and b hold bit-identical entries: NaN
// payloads and the sign of zero count.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if math.Float64bits(x.Rect.MinX) != math.Float64bits(y.Rect.MinX) ||
			math.Float64bits(x.Rect.MaxX) != math.Float64bits(y.Rect.MaxX) ||
			math.Float64bits(x.Rect.MinY) != math.Float64bits(y.Rect.MinY) ||
			math.Float64bits(x.Rect.MaxY) != math.Float64bits(y.Rect.MaxY) ||
			x.Ref != y.Ref {
			return false
		}
	}
	return true
}

// refIntersects is geo.Rect.Intersects as it stood before its comparisons
// were combined without short-circuiting.
func refIntersects(r, s geo.Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// refSearch is Search as it stood before the scans indexed entries in
// place: each entry copied out of the node, then tested with the
// short-circuit intersection test.
func refSearch(t *Tree, q geo.Rect, fn func(r geo.Rect, ref uint64) bool) (OpStats, error) {
	if !q.Valid() {
		return OpStats{}, ErrInvalidRect
	}
	t.stats = OpStats{}
	stack := []int{t.rootChunk}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNode(id)
		if err != nil {
			return t.stats, err
		}
		if n.IsLeaf() {
			for _, e := range n.Entries {
				if refIntersects(q, e.Rect) {
					t.stats.Results++
					if fn != nil && !fn(e.Rect, e.Ref) {
						return t.stats, nil
					}
				}
			}
			continue
		}
		for _, e := range n.Entries {
			if refIntersects(q, e.Rect) {
				stack = append(stack, int(e.Ref))
			}
		}
	}
	return t.stats, nil
}

// refSearchLocal is the shared-latch search — statistics in locals, an
// array-backed stack — as it stood before the same rewrite; Search has
// since taken its body.
func refSearchLocal(t *Tree, q geo.Rect, fn func(r geo.Rect, ref uint64) bool) (OpStats, error) {
	var st OpStats
	if !q.Valid() {
		return st, ErrInvalidRect
	}
	var backing [128]int
	stack := append(backing[:0], t.rootChunk)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.cache[id]
		if n == nil {
			return st, fmt.Errorf("rtree: chunk %d missing from cache", id)
		}
		st.NodesRead++
		if n.IsLeaf() {
			for _, e := range n.Entries {
				if refIntersects(q, e.Rect) {
					st.Results++
					if fn != nil && !fn(e.Rect, e.Ref) {
						return st, nil
					}
				}
			}
			continue
		}
		for _, e := range n.Entries {
			if refIntersects(q, e.Rect) {
				stack = append(stack, int(e.Ref))
			}
		}
	}
	return st, nil
}

// searchFn is the signature shared by the searches and their references.
type searchFn func(q geo.Rect, fn func(r geo.Rect, ref uint64) bool) (OpStats, error)

// collect runs search over q, stopping after limit results when limit > 0,
// and returns what it visited in order.
func collect(search searchFn, q geo.Rect, limit int) ([]Entry, OpStats, error) {
	var out []Entry
	st, err := search(q, func(r geo.Rect, ref uint64) bool {
		out = append(out, Entry{Rect: r, Ref: ref})
		return limit == 0 || len(out) < limit
	})
	return out, st, err
}

// TestSearchMatchesReference: over random windows on a bulk-loaded tree —
// points, scans, windows wider than the data, degenerate ones sharing an
// edge with a stored rectangle, and an invalid one — Search visits the same
// items in the same order, reports the same OpStats and error, and stops at
// the same place as both reference loops.
func TestSearchMatchesReference(t *testing.T) {
	loaded := 50_000
	if raceBuild {
		loaded = 5_000
	}
	rng := rand.New(rand.NewSource(36))
	entries := make([]Entry, loaded)
	for i := range entries {
		entries[i] = Entry{Rect: uniformRect(rng, 1e-3), Ref: uint64(i)}
	}
	tree := newTestTree(t, loaded/20+64, 0)
	if err := tree.BulkLoad(entries, 0); err != nil {
		t.Fatal(err)
	}

	refs := []struct {
		name string
		ref  searchFn
	}{
		{"refSearchLocal", func(q geo.Rect, fn func(geo.Rect, uint64) bool) (OpStats, error) {
			return refSearchLocal(tree, q, fn)
		}},
		{"refSearch", func(q geo.Rect, fn func(geo.Rect, uint64) bool) (OpStats, error) {
			return refSearch(tree, q, fn)
		}},
	}
	var windows []geo.Rect
	for i := 0; i < 400; i++ {
		windows = append(windows, uniformRect(rng, 1e-4), uniformRect(rng, 0.02), uniformRect(rng, 0.2))
		e := entries[rng.Intn(len(entries))].Rect
		windows = append(windows,
			geo.Rect{MinX: e.MaxX, MaxX: e.MaxX, MinY: e.MinY, MaxY: e.MaxY}, // touches e's right edge
			geo.Rect{MinX: e.MinX, MaxX: e.MaxX, MinY: e.MaxY, MaxY: e.MaxY + 1e-3})
	}
	windows = append(windows, geo.Rect{MinX: -1, MaxX: 2, MinY: -1, MaxY: 2}, geo.Rect{MinX: 1, MaxX: 0})
	for _, r := range refs {
		for i, q := range windows {
			limit := 0
			if i%5 == 4 {
				limit = 1 + rng.Intn(8)
			}
			got, gst, gerr := collect(tree.Search, q, limit)
			want, wst, werr := collect(r.ref, q, limit)
			if !errors.Is(gerr, werr) || gst != wst || !sameEntries(got, want) {
				t.Fatalf("Search vs %s, window %d %+v (limit %d): %d items, %+v, %v; reference %d items, %+v, %v",
					r.name, i, q, limit, len(got), gst, gerr, len(want), wst, werr)
			}
		}
	}
}

func BenchmarkDecodeNode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := Node{Level: 0, Entries: make([]Entry, 70)}
	for i := range n.Entries {
		n.Entries[i] = Entry{Rect: uniformRect(rng, 1e-3), Ref: uint64(i)}
	}
	payload := n.Encode(nil)
	var out Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeNode(payload, &out, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch times the server's fast-messaging search over the
// bulk-loaded fixture: a point lookup and a scan the size of the wall-clock
// benchmark's scan-fast window (≈ 500 results out of a million, scaled to
// the fixture's 200k objects).
func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tree, _ := bulkLoadedTree(b, rng, 0)
	for _, bc := range []struct {
		name string
		edge float64
	}{{"point", 1e-5}, {"scan", 0.05}} {
		b.Run(bc.name, func(b *testing.B) {
			windows := make([]geo.Rect, 1024)
			for i := range windows {
				x, y := rng.Float64()*(1-bc.edge), rng.Float64()*(1-bc.edge)
				windows[i] = geo.Rect{MinX: x, MaxX: x + bc.edge, MinY: y, MaxY: y + bc.edge}
			}
			results := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := tree.Search(windows[i%len(windows)], func(geo.Rect, uint64) bool { return true })
				if err != nil {
					b.Fatal(err)
				}
				results += st.Results
			}
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
		})
	}
}
