package main

import (
	"fmt"
	"slices"
	"sort"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

// verdict counts correctness checks; the first few mismatches are kept as
// text for the report.
type verdict struct {
	attempted, failed int64
	notes             []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if ok {
		return
	}
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// search is the brute-force reference: the refs of every entry the model
// holds that intersects q, ascending.
func (m *model) search(q geo.Rect) []uint64 {
	var refs []uint64
	for ref, r := range m.rects {
		if r.Intersects(q) {
			refs = append(refs, uint64(ref))
		}
	}
	for _, e := range m.extra {
		if e.Rect.Intersects(q) {
			refs = append(refs, e.Ref)
		}
	}
	slices.Sort(refs)
	return refs
}

// nearestDistSq is the brute-force reference for Nearest: the k smallest
// squared distances from (x, y), ascending. Distances, not refs, are
// compared so that ties cannot produce a false mismatch.
func (m *model) nearestDistSq(k int, x, y float64) []float64 {
	best := make([]float64, 0, k+1)
	offer := func(r geo.Rect) {
		d := r.DistSqToPoint(x, y)
		if len(best) == k && d >= best[k-1] {
			return
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	for _, r := range m.rects {
		offer(r)
	}
	for _, e := range m.extra {
		offer(e.Rect)
	}
	return best
}

func sameRefs(items []wire.Item, want []uint64) bool {
	if len(items) != len(want) {
		return false
	}
	got := make([]uint64, len(items))
	for i, it := range items {
		got[i] = it.Ref
	}
	slices.Sort(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// verify is the quiesced correctness pass: every writer has stopped, so
// the tree must equal the model. Searches go through the workload's own
// reader connection, so point-offload checks the client-side traversal.
func (d *deployment) verify(in *inputs, sc scale) *verdict {
	v := &verdict{}
	reader := d.conns[0]
	if d.name == "moving-fleet" {
		reader = d.conns[1]
	}
	for _, q := range in.Verify {
		items, _, err := reader.Search(q)
		want := d.model.search(q)
		v.check(err == nil && sameRefs(items, want),
			"search %v: %d results, want %d (err %v)", q, len(items), len(want), err)
	}
	for i := 0; i < sc.verifyKNN; i++ {
		p := in.KNN[len(in.KNN)-1-i]
		got, _, err := d.writer().Nearest(knnK, p[0], p[1])
		want := d.model.nearestDistSq(knnK, p[0], p[1])
		ok := err == nil && len(got) == len(want)
		for j := 0; ok && j < len(got); j++ {
			ok = got[j].DistSq == want[j]
		}
		v.check(ok, "nearest(%d, %v, %v): got %d neighbours, want %d (err %v)", knnK, p[0], p[1], len(got), len(want), err)
	}
	if d.name == "moving-fleet" {
		d.verifyFleet(reader, v)
	}
	return v
}

// verifyFleet checks that one search of the whole space returns every
// mover exactly once, at its final position.
func (d *deployment) verifyFleet(c catfish.Conn, v *verdict) {
	items, _, err := c.Search(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	v.check(err == nil && len(items) == len(d.model.rects),
		"full scan: %d items for %d movers (err %v)", len(items), len(d.model.rects), err)
	seen := make([]bool, len(d.model.rects))
	for _, it := range items {
		ok := it.Ref < uint64(len(seen)) && !seen[it.Ref] && it.Rect == d.model.rects[it.Ref]
		if ok {
			seen[it.Ref] = true
		}
		v.check(ok, "mover %d: duplicate, unknown, or at %v", it.Ref, it.Rect)
	}
}
