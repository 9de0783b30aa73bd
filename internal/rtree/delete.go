package rtree

import (
	"fmt"

	"github.com/catfish-db/catfish/internal/geo"
)

// Search visits every stored item whose rectangle intersects q, invoking fn
// for each. fn returning false stops the traversal early. Search follows
// every qualifying path, as R-tree search must (the paper's Fig 3a shows two
// paths for one query). It keeps its statistics in locals and touches no
// tree scratch state, so searches may run concurrently provided no writer
// does (callers hold a shared latch, as the servers do).
func (t *Tree) Search(q geo.Rect, fn func(r geo.Rect, ref uint64) bool) (OpStats, error) {
	var st OpStats
	if !q.Valid() {
		return st, ErrInvalidRect
	}
	// Array-backed, so the stack of a point search — and of any scan whose
	// pending subtrees fit — lives in this frame, not on the heap.
	var backing [128]int
	stack := append(backing[:0], t.rootChunk)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.load(id)
		if err != nil {
			return st, err
		}
		st.NodesRead++
		entries := n.Entries
		if n.IsLeaf() {
			for i := range entries {
				e := &entries[i]
				if q.Intersects(e.Rect) {
					st.Results++
					if fn != nil && !fn(e.Rect, e.Ref) {
						return st, nil
					}
				}
			}
			continue
		}
		for i := range entries {
			if e := &entries[i]; q.Intersects(e.Rect) {
				stack = append(stack, int(e.Ref))
			}
		}
	}
	return st, nil
}

// SearchCollect returns all items intersecting q.
func (t *Tree) SearchCollect(q geo.Rect) ([]Entry, OpStats, error) {
	var out []Entry
	st, err := t.Search(q, func(r geo.Rect, ref uint64) bool {
		out = append(out, Entry{Rect: r, Ref: ref})
		return true
	})
	return out, st, err
}

// Delete removes one entry exactly matching (r, ref). It returns false when
// no such entry exists. Underflowing nodes are condensed: the node is
// removed and its entries re-inserted at their level, per Guttman's
// CondenseTree, with R* handling of any overflows that re-insertion causes.
func (t *Tree) Delete(r geo.Rect, ref uint64) (bool, OpStats, error) {
	if !r.Valid() {
		return false, OpStats{}, ErrInvalidRect
	}
	t.stats = OpStats{}
	p, entryIdx, err := t.findLeaf(r, ref)
	if err != nil || p == nil {
		return false, t.stats, err
	}
	err = t.deleteAt(p, entryIdx)
	return true, t.stats, err
}

// Relocation is what Relocate did with the entry it was asked to move.
type Relocation int

const (
	// RelocateAbsent: no entry (from, ref) exists; the tree is untouched.
	RelocateAbsent Relocation = iota
	// RelocateDeleted: the entry was removed as Delete removes it; inserting
	// it at its destination is left to the caller.
	RelocateDeleted
	// RelocateInPlace: the entry now holds its destination rectangle, in the
	// leaf it was found in.
	RelocateInPlace
)

// Relocate moves entry (from, ref) towards rectangle to with one findLeaf.
// When the leaf's covering rectangle in its parent contains to (or the leaf
// is the root) the entry's rectangle is overwritten where it is — the
// bottom-up update of Lee et al. (VLDB 2003): the leaf is republished and
// the ancestors whose rectangle the move shrank are tightened, up to the
// first unchanged one. The leaf's rectangle can only shrink this way,
// so no sibling overlap is added and search quality does not drift.
// Otherwise the entry is deleted through the path already found and the
// caller inserts it at to.
func (t *Tree) Relocate(from, to geo.Rect, ref uint64) (Relocation, OpStats, error) {
	if !from.Valid() || !to.Valid() {
		return RelocateAbsent, OpStats{}, ErrInvalidRect
	}
	t.stats = OpStats{}
	p, entryIdx, err := t.findLeaf(from, ref)
	if err != nil || p == nil {
		return RelocateAbsent, t.stats, err
	}
	d := p.depth() - 1
	if d > 0 && !p.nodes[d-1].Entries[p.child[d-1]].Rect.Contains(to) {
		err = t.deleteAt(p, entryIdx)
		return RelocateDeleted, t.stats, err
	}
	p.nodes[d].Entries[entryIdx].Rect = to
	err = t.republish(p, d)
	return RelocateInPlace, t.stats, err
}

// deleteAt removes entry entryIdx of the leaf that ends path p and restores
// the tree's invariants.
func (t *Tree) deleteAt(p *path, entryIdx int) error {
	d := p.depth() - 1
	leaf := p.nodes[d]
	leaf.Entries = append(leaf.Entries[:entryIdx], leaf.Entries[entryIdx+1:]...)
	t.size--

	var orphans []orphan
	if err := t.condense(p, d, &orphans); err != nil {
		return err
	}
	// Re-insert orphaned entries, deepest level first so internal entries
	// land before the leaves they might have covered.
	for i := len(orphans) - 1; i >= 0; i-- {
		clear(t.reinsertedAt)
		if err := t.insertEntry(orphans[i].e, orphans[i].level); err != nil {
			return err
		}
	}
	return t.shrinkRoot()
}

type orphan struct {
	e     Entry
	level int
}

// findLeaf locates the leaf containing the exact entry (r, ref), returning
// the root-to-leaf path and the entry index, or a nil path when absent.
func (t *Tree) findLeaf(r geo.Rect, ref uint64) (*path, int, error) {
	return t.findLeafFrom(t.pathBuf.reset(), t.rootChunk, r, ref)
}

func (t *Tree) findLeafFrom(p *path, id int, r geo.Rect, ref uint64) (*path, int, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, 0, err
	}
	p.ids = append(p.ids, id)
	p.nodes = append(p.nodes, n)
	if n.IsLeaf() {
		for i, e := range n.Entries {
			if e.Ref == ref && e.Rect.Equal(r) {
				return p, i, nil
			}
		}
	} else {
		for i, e := range n.Entries {
			if !e.Rect.Contains(r) {
				continue
			}
			p.child = append(p.child, i)
			found, idx, err := t.findLeafFrom(p, int(e.Ref), r, ref)
			if err != nil {
				return nil, 0, err
			}
			if found != nil {
				return found, idx, nil
			}
			p.child = p.child[:len(p.child)-1]
		}
	}
	p.ids = p.ids[:len(p.ids)-1]
	p.nodes = p.nodes[:len(p.nodes)-1]
	return nil, 0, nil
}

// condense walks from the modified node at depth d towards the root:
// underfull non-root nodes are removed (their entries orphaned, their chunks
// freed) until one is left standing. That node is republished and, as it
// takes no entry from its parent, nothing above it can underflow: the rest
// of the walk is adjustUp's, which stops at the first ancestor whose
// rectangle for the path did not change. The root is written only when it
// lost an entry, a rectangle in it changed, or it is the modified node.
func (t *Tree) condense(p *path, d int, orphans *[]orphan) error {
	for i := d; i > 0; i-- {
		n := p.nodes[i]
		if len(n.Entries) >= t.minEntries {
			return t.republish(p, i)
		}
		for _, e := range n.Entries {
			*orphans = append(*orphans, orphan{e: e, level: n.Level})
		}
		parent, childIdx := p.nodes[i-1], p.child[i-1]
		parent.Entries = append(parent.Entries[:childIdx], parent.Entries[childIdx+1:]...)
		if err := t.freeChunk(p.ids[i]); err != nil {
			return fmt.Errorf("rtree: condense free: %w", err)
		}
	}
	return t.writeNode(p.ids[0], p.nodes[0])
}

// shrinkRoot collapses the tree while the root is an internal node with a
// single child: the child's content moves into the stable root chunk.
func (t *Tree) shrinkRoot() error {
	for {
		root, err := t.readNode(t.rootChunk)
		if err != nil {
			return err
		}
		if root.IsLeaf() || len(root.Entries) != 1 {
			return nil
		}
		childID := int(root.Entries[0].Ref)
		child, err := t.readNode(childID)
		if err != nil {
			return err
		}
		if err := t.writeNode(t.rootChunk, child); err != nil {
			return err
		}
		if err := t.freeChunk(childID); err != nil {
			return fmt.Errorf("rtree: shrink free: %w", err)
		}
		t.height--
	}
}

// freeChunk releases a chunk back to the region and drops its cache slot.
func (t *Tree) freeChunk(id int) error {
	t.cache[id] = nil
	return t.reg.Free(id)
}
