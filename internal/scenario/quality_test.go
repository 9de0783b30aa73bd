//go:build !race

// One goroutine and a statistic over a few hundred thousand tree writes:
// nothing for the race detector to find, and minutes for it to not find it.
package scenario

import (
	"math"
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
)

// TestInPlaceMovesKeepSearchQuality guards what moving entries in place
// could cost: an R*-tree keeps its leaves compact by choosing a subtree on
// every insert, and a MOVE that rewrites the entry where it is skips that
// choice. The same twelve fleet ticks go into one tree as the server applies
// them (Relocate, inserting only when the leaf no longer covers the
// destination) and into another as delete + insert; a nearby-window search
// may then read at most 10 % more nodes on the first. The fleet is the
// benchmark's (200k vehicles, steps up to 0.002, windows of edge 0.01) with a
// tenth of the vehicles and every length scaled by √10, so steps, windows
// and leaves keep their proportions.
func TestInPlaceMovesKeepSearchQuality(t *testing.T) {
	const n, ticks, searches = 20_000, 12, 4_000
	scale := math.Sqrt(200_000 / n)
	rng := rand.New(rand.NewSource(5))
	fleet := NewMovingObjects(rng, MovingConfig{N: n, Speed: 0.002 * scale})
	load := func() *rtree.Tree {
		reg, err := region.New(n/10, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rtree.New(reg, rtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(fleet.Seed(), 0); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	inPlace, reinsert := load(), load()
	stayed := 0
	var moves []Move
	for tick := 0; tick < ticks; tick++ {
		moves = fleet.Tick(rng, moves)
		for _, m := range moves {
			how, _, err := inPlace.Relocate(m.From, m.To, m.Ref)
			if err == nil && how != rtree.RelocateInPlace {
				_, err = inPlace.Insert(m.To, m.Ref)
			}
			if err != nil {
				t.Fatal(err)
			}
			if how == rtree.RelocateInPlace {
				stayed++
			}
			if found, _, err := reinsert.Delete(m.From, m.Ref); err != nil || !found {
				t.Fatalf("delete ref %d: found=%v err=%v", m.Ref, found, err)
			}
			if _, err := reinsert.Insert(m.To, m.Ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tree := range []*rtree.Tree{inPlace, reinsert} {
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	var read [2]int
	for i := 0; i < searches; i++ {
		q := fleet.Nearby(rng.Intn(n), 0.01*scale)
		for j, tree := range []*rtree.Tree{inPlace, reinsert} {
			st, err := tree.Search(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			read[j] += st.NodesRead
		}
	}
	ratio := float64(read[0]) / float64(read[1])
	t.Logf("%.1f %% of %d MOVEs in place; nodes read per search %.2f in place, %.2f reinserting (%+.1f %%)",
		100*float64(stayed)/float64(ticks*n), ticks*n,
		float64(read[0])/searches, float64(read[1])/searches, 100*(ratio-1))
	if ratio > 1.10 {
		t.Errorf("searches read %.1f %% more nodes after in-place MOVEs, want at most 10 %%", 100*(ratio-1))
	}
}
