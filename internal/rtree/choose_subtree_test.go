package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

// refChooseLeafSubtree is chooseLeafSubtree as it stood before it was
// pruned: enlargements recomputed inside the sort comparator, every
// candidate's overlap sum computed in full. It is the oracle the pruned
// version must agree with on every input, ties included.
func refChooseLeafSubtree(t *Tree, n *Node, r geo.Rect) int {
	cand := make([]int, len(n.Entries))
	for i := range cand {
		cand[i] = i
	}
	if len(cand) > chooseSubtreeProbe {
		sort.Slice(cand, func(a, b int) bool {
			return n.Entries[cand[a]].Rect.Enlargement(r) < n.Entries[cand[b]].Rect.Enlargement(r)
		})
		cand = cand[:chooseSubtreeProbe]
	}
	best := cand[0]
	bestOverlap := t.overlapDelta(n, best, r)
	bestEnl := n.Entries[best].Rect.Enlargement(r)
	bestArea := n.Entries[best].Rect.Area()
	for _, i := range cand[1:] {
		ov := t.overlapDelta(n, i, r)
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if ov < bestOverlap ||
			(ov == bestOverlap && enl < bestEnl) ||
			(ov == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// TestChooseLeafSubtreeMatchesReference: on random level-1 nodes of 4…65
// entries — built to hit ties and both sides of every pruning rule — the
// pruned ChooseSubtree picks the child the reference picks, whether it took
// the least-area containing child outright (scoreChildren) or ran the sorted
// loop; both branches are taken.
func TestChooseLeafSubtreeMatchesReference(t *testing.T) {
	tree := newTestTree(t, 16, 0)
	rng := rand.New(rand.NewSource(15))
	// Coordinates on a coarse grid make equal enlargements, equal areas and
	// rects that share edges common rather than measure-zero.
	grid := func(cells int) float64 { return float64(rng.Intn(cells+1)) / float64(cells) }
	gridRect := func(cells int) geo.Rect {
		return geo.NewRect(grid(cells), grid(cells), grid(cells), grid(cells))
	}
	shapes := []struct {
		name string
		gen  func(n int) ([]geo.Rect, geo.Rect)
	}{
		{"uniform", func(n int) ([]geo.Rect, geo.Rect) {
			rects := make([]geo.Rect, n)
			for i := range rects {
				rects[i] = uniformRect(rng, 0.3)
			}
			return rects, uniformRect(rng, 0.05)
		}},
		{"grid-ties", func(n int) ([]geo.Rect, geo.Rect) {
			rects := make([]geo.Rect, n)
			for i := range rects {
				rects[i] = gridRect(8)
			}
			return rects, gridRect(8)
		}},
		{"duplicate-mbrs", func(n int) ([]geo.Rect, geo.Rect) {
			pool := []geo.Rect{gridRect(4), gridRect(4), gridRect(4)}
			rects := make([]geo.Rect, n)
			for i := range rects {
				rects[i] = pool[rng.Intn(len(pool))]
			}
			return rects, gridRect(16)
		}},
		{"all-contain", func(n int) ([]geo.Rect, geo.Rect) { // > 32 containing entries once n > 32
			rects := make([]geo.Rect, n)
			for i := range rects {
				pad := float64(rng.Intn(4)) / 16
				rects[i] = geo.Rect{MinX: 0.25 - pad, MaxX: 0.75 + pad, MinY: 0.25 - pad, MaxY: 0.75 + pad}
			}
			return rects, geo.Rect{MinX: 0.4, MaxX: 0.6, MinY: 0.4, MaxY: 0.6}
		}},
		{"many-contain-one-least", func(n int) ([]geo.Rect, geo.Rect) { // the least may fall outside the probe
			n += chooseSubtreeProbe
			rects := make([]geo.Rect, n)
			for i := range rects {
				pad := float64(1+rng.Intn(3)) / 16
				rects[i] = geo.Rect{MinX: 0.25 - pad, MaxX: 0.75 + pad, MinY: 0.25 - pad, MaxY: 0.75 + pad}
			}
			rects[rng.Intn(n)] = geo.Rect{MinX: 0.25, MaxX: 0.75, MinY: 0.25, MaxY: 0.75}
			return rects, geo.Rect{MinX: 0.4, MaxX: 0.6, MinY: 0.4, MaxY: 0.6}
		}},
		{"none-contains", func(n int) ([]geo.Rect, geo.Rect) {
			rects := make([]geo.Rect, n)
			for i := range rects {
				x, y := rng.Float64()*0.4, rng.Float64()*0.9
				rects[i] = geo.Rect{MinX: x, MaxX: x + 0.1, MinY: y, MaxY: y + 0.1}
			}
			x, y := 0.6+rng.Float64()*0.3, rng.Float64()*0.9
			return rects, geo.Rect{MinX: x, MaxX: x + 0.05, MinY: y, MaxY: y + 0.05}
		}},
		{"on-edges", func(n int) ([]geo.Rect, geo.Rect) { // r lies on an MBR's boundary
			rects := make([]geo.Rect, n)
			for i := range rects {
				rects[i] = gridRect(8)
			}
			e := rects[rng.Intn(n)]
			return rects, geo.Rect{MinX: e.MinX, MaxX: e.MinX, MinY: e.MinY, MaxY: e.MaxY}
		}},
		{"zero-area", func(n int) ([]geo.Rect, geo.Rect) { // points and segments on both sides
			rects := make([]geo.Rect, n)
			for i := range rects {
				rects[i] = gridRect(8)
				if rng.Intn(2) == 0 {
					rects[i].MaxX = rects[i].MinX
				}
			}
			return rects, geo.PointRect(grid(8), grid(8))
		}},
	}
	shortcuts, trials := 0, 0
	for _, shape := range shapes {
		pruned, shortcut := 0, 0
		for trial := 0; trial < 400; trial++ {
			rects, r := shape.gen(4 + rng.Intn(62))
			n := &Node{Level: 1}
			contains := 0
			for i, mbr := range rects {
				n.Entries = append(n.Entries, Entry{Rect: mbr, Ref: uint64(i)})
				if mbr.Contains(r) {
					contains++
				}
			}
			got, want := tree.chooseLeafSubtree(n, r), refChooseLeafSubtree(tree, n, r)
			if got != want {
				t.Fatalf("%s trial %d: %d entries (%d contain r): chose %d, reference chose %d\nr=%v\nentries=%v",
					shape.name, trial, len(rects), contains, got, want, r, n.Entries)
			}
			if contains > 0 {
				pruned++
			}
			if tree.scoreChildren(n, r) >= 0 {
				shortcut++
			}
		}
		t.Logf("%s: 400 nodes agree, %d with a containing entry, %d chosen without the sorted loop", shape.name, pruned, shortcut)
		shortcuts, trials = shortcuts+shortcut, trials+400
	}
	if shortcuts == 0 || shortcuts == trials {
		t.Errorf("%d of %d trials took the shortcut: one branch went unchecked", shortcuts, trials)
	}
}
