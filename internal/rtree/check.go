package rtree

import (
	"fmt"

	"github.com/catfish-db/catfish/internal/geo"
)

// CheckInvariants verifies the structural invariants of the tree and
// returns the first violation found. It is intended for tests and
// debugging; it reads every node.
//
// Checked invariants:
//   - the root's level equals Height-1;
//   - every child is exactly one level below its parent;
//   - every non-root node holds between MinEntries and MaxEntries entries,
//     the root between 1 and MaxEntries (2 when internal), except a root
//     leaf which may be empty;
//   - every parent entry's rectangle equals the child's MBR exactly;
//   - all stored rectangles are valid;
//   - the number of leaf entries equals Len();
//   - no chunk is referenced twice;
//   - every reachable chunk's cached node equals its region bytes.
func (t *Tree) CheckInvariants() error {
	seen := make(map[int]bool)
	items, err := t.checkNode(t.rootChunk, t.height-1, true, seen)
	if err != nil {
		return err
	}
	if items != t.size {
		return fmt.Errorf("rtree: leaf entries %d != Len %d", items, t.size)
	}
	return nil
}

func (t *Tree) checkNode(id, wantLevel int, isRoot bool, seen map[int]bool) (int, error) {
	if seen[id] {
		return 0, fmt.Errorf("rtree: chunk %d referenced twice", id)
	}
	seen[id] = true
	// Validate the region bytes — what an RDMA reader would decode — and
	// that the server-side cache, which every tree read is served from,
	// holds exactly them.
	n, err := t.readNodeRegion(id)
	if err != nil {
		return 0, err
	}
	c := t.cache[id]
	if c == nil {
		return 0, fmt.Errorf("rtree: chunk %d cache incoherent (missing)", id)
	}
	if c.Level != n.Level || len(c.Entries) != len(n.Entries) {
		return 0, fmt.Errorf("rtree: chunk %d cache incoherent (level %d/%d, count %d/%d)",
			id, c.Level, n.Level, len(c.Entries), len(n.Entries))
	}
	for i := range c.Entries {
		if c.Entries[i] != n.Entries[i] {
			return 0, fmt.Errorf("rtree: chunk %d cache entry %d differs from region", id, i)
		}
	}
	if n.Level != wantLevel {
		return 0, fmt.Errorf("rtree: chunk %d level %d, want %d", id, n.Level, wantLevel)
	}
	min, max := t.minEntries, t.maxEntries
	if isRoot {
		min = 1
		if !n.IsLeaf() {
			min = 2
		}
	}
	if isRoot && n.IsLeaf() && len(n.Entries) == 0 {
		return 0, nil // empty tree
	}
	if len(n.Entries) < min || len(n.Entries) > max {
		return 0, fmt.Errorf("rtree: chunk %d has %d entries, want [%d, %d]",
			id, len(n.Entries), min, max)
	}
	for i, e := range n.Entries {
		if !e.Rect.Valid() {
			return 0, fmt.Errorf("rtree: chunk %d entry %d invalid rect %v", id, i, e.Rect)
		}
	}
	if n.IsLeaf() {
		return len(n.Entries), nil
	}
	total := 0
	for i, e := range n.Entries {
		childItems, err := t.checkNode(int(e.Ref), wantLevel-1, false, seen)
		if err != nil {
			return 0, err
		}
		child, err := t.readNodeRegion(int(e.Ref))
		if err != nil {
			return 0, err
		}
		if mbr := child.MBR(); !mbr.Equal(e.Rect) {
			return 0, fmt.Errorf("rtree: chunk %d entry %d rect %v != child MBR %v",
				id, i, e.Rect, mbr)
		}
		total += childItems
	}
	return total, nil
}

// Stats describes the physical shape of the tree.
type TreeShape struct {
	Height     int
	Nodes      int
	Leaves     int
	Items      int
	AvgFanout  float64
	BytesAlloc int
}

// Shape traverses the tree and reports its physical shape.
func (t *Tree) Shape() (TreeShape, error) {
	shape := TreeShape{Height: t.height, Items: t.size}
	var walk func(id int) error
	entrySum := 0
	walk = func(id int) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		shape.Nodes++
		entrySum += len(n.Entries)
		if n.IsLeaf() {
			shape.Leaves++
			return nil
		}
		for _, e := range n.Entries {
			if err := walk(int(e.Ref)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.rootChunk); err != nil {
		return shape, err
	}
	if shape.Nodes > 0 {
		shape.AvgFanout = float64(entrySum) / float64(shape.Nodes)
	}
	shape.BytesAlloc = shape.Nodes * t.reg.ChunkSize()
	return shape, nil
}

// visitRects is a test helper surface: it walks all leaf entries in tree
// order without geometric filtering.
func (t *Tree) visitRects(fn func(geo.Rect, uint64)) error {
	var walk func(id int) error
	walk = func(id int) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.IsLeaf() {
			for _, e := range n.Entries {
				fn(e.Rect, e.Ref)
			}
			return nil
		}
		for _, e := range n.Entries {
			if err := walk(int(e.Ref)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.rootChunk)
}
