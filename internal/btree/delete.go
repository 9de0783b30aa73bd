package btree

import (
	"errors"
	"fmt"
)

// Delete removes key, rebalancing underfull nodes by borrowing from or
// merging with a sibling, and collapsing the root when it has one child.
func (t *Tree) Delete(key uint64) error {
	path, err := t.descend(key)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	i := leaf.node.Search(key)
	if i >= len(leaf.node.Entries) || leaf.node.Entries[i].Key != key {
		return ErrNotFound
	}
	leaf.node.Entries = append(leaf.node.Entries[:i], leaf.node.Entries[i+1:]...)
	t.size--
	if i == 0 && len(leaf.node.Entries) > 0 {
		if err := t.refreshSeparators(path); err != nil {
			return err
		}
	}
	return t.rebalanceUp(path)
}

// rebalanceUp fixes underflow from the bottom of path toward the root.
func (t *Tree) rebalanceUp(path []pathElem) error {
	for d := len(path) - 1; d > 0; d-- {
		pe := path[d]
		if len(pe.node.Entries) >= t.minEntries {
			return t.writeNode(pe.id, pe.node)
		}
		parent := path[d-1]
		if err := t.fixUnderflow(parent, pe); err != nil {
			return err
		}
		// The parent lost or changed entries; continue upward.
	}
	// Root handling: collapse an internal root with a single child.
	root := path[0]
	if err := t.writeNode(root.id, root.node); err != nil {
		return err
	}
	for {
		n, err := t.readNode(t.rootChunk)
		if err != nil {
			return err
		}
		if n.IsLeaf() || len(n.Entries) != 1 {
			return nil
		}
		childID := int(n.Entries[0].Val)
		child, err := t.readNode(childID)
		if err != nil {
			return err
		}
		if err := t.writeNode(t.rootChunk, child); err != nil {
			return err
		}
		if err := t.freeChunk(childID); err != nil {
			return fmt.Errorf("btree: shrink free: %w", err)
		}
		t.height--
	}
}

// fixUnderflow repairs the underfull child at parent.child by borrowing
// from an adjacent sibling or merging with it.
func (t *Tree) fixUnderflow(parent, pe pathElem) error {
	ci := parent.child
	n := pe.node

	// Try borrowing from the left sibling.
	if ci > 0 {
		leftID := int(parent.node.Entries[ci-1].Val)
		left, err := t.readNode(leftID)
		if err != nil {
			return err
		}
		if len(left.Entries) > t.minEntries {
			moved := left.Entries[len(left.Entries)-1]
			left.Entries = left.Entries[:len(left.Entries)-1]
			n.Entries = append(n.Entries, Entry{})
			copy(n.Entries[1:], n.Entries)
			n.Entries[0] = moved
			parent.node.Entries[ci].Key = moved.Key
			if err := t.writeNode(leftID, left); err != nil {
				return err
			}
			if err := t.writeNode(pe.id, n); err != nil {
				return err
			}
			return nil // parent rewritten by caller loop
		}
	}
	// Try borrowing from the right sibling.
	if ci+1 < len(parent.node.Entries) {
		rightID := int(parent.node.Entries[ci+1].Val)
		right, err := t.readNode(rightID)
		if err != nil {
			return err
		}
		if len(right.Entries) > t.minEntries {
			moved := right.Entries[0]
			right.Entries = append(right.Entries[:0], right.Entries[1:]...)
			n.Entries = append(n.Entries, moved)
			parent.node.Entries[ci+1].Key = right.Entries[0].Key
			if err := t.writeNode(rightID, right); err != nil {
				return err
			}
			if err := t.writeNode(pe.id, n); err != nil {
				return err
			}
			return nil
		}
	}
	// Merge with a sibling (prefer left).
	if ci > 0 {
		leftID := int(parent.node.Entries[ci-1].Val)
		left, err := t.readNode(leftID)
		if err != nil {
			return err
		}
		left.Entries = append(left.Entries, n.Entries...)
		if n.IsLeaf() {
			left.Next = n.Next
		}
		parent.node.Entries = append(parent.node.Entries[:ci], parent.node.Entries[ci+1:]...)
		if err := t.writeNode(leftID, left); err != nil {
			return err
		}
		return t.freeChunk(pe.id)
	}
	if ci+1 < len(parent.node.Entries) {
		rightID := int(parent.node.Entries[ci+1].Val)
		right, err := t.readNode(rightID)
		if err != nil {
			return err
		}
		n.Entries = append(n.Entries, right.Entries...)
		if n.IsLeaf() {
			n.Next = right.Next
		}
		parent.node.Entries = append(parent.node.Entries[:ci+1], parent.node.Entries[ci+2:]...)
		if err := t.writeNode(pe.id, n); err != nil {
			return err
		}
		return t.freeChunk(rightID)
	}
	// Lone child of the root: write as-is; the root collapse handles it.
	return t.writeNode(pe.id, n)
}

// CheckInvariants verifies structural invariants: sorted keys, separator
// correctness, occupancy bounds, level consistency, leaf-chain order, the
// size count, and that every reachable chunk's cached node equals its
// region bytes. Intended for tests.
func (t *Tree) CheckInvariants() error {
	seen := make(map[int]bool)
	var leftmost []int // leftmost chunk per level for chain checking
	var walk func(id, wantLevel int, isRoot bool, lo uint64, hasLo bool) error
	walk = func(id, wantLevel int, isRoot bool, lo uint64, hasLo bool) error {
		if seen[id] {
			return fmt.Errorf("btree: chunk %d referenced twice", id)
		}
		seen[id] = true
		n, err := t.readNodeRegion(id)
		if err != nil {
			return err
		}
		// Every tree read is served from the cache: it must hold exactly
		// the region bytes.
		c := t.cache[id]
		if c == nil {
			return fmt.Errorf("btree: chunk %d cache incoherent (missing)", id)
		}
		if c.Level != n.Level || len(c.Entries) != len(n.Entries) || c.Next != n.Next {
			return fmt.Errorf("btree: chunk %d cache incoherent", id)
		}
		for i := range c.Entries {
			if c.Entries[i] != n.Entries[i] {
				return fmt.Errorf("btree: chunk %d cache entry %d differs", id, i)
			}
		}
		if n.Level != wantLevel {
			return fmt.Errorf("btree: chunk %d level %d, want %d", id, n.Level, wantLevel)
		}
		min := t.minEntries
		if isRoot {
			min = 0
			if !n.IsLeaf() {
				min = 2
			}
		}
		if len(n.Entries) < min || len(n.Entries) > t.maxEntries {
			return fmt.Errorf("btree: chunk %d has %d entries, want [%d, %d]",
				id, len(n.Entries), min, t.maxEntries)
		}
		if hasLo && len(n.Entries) > 0 && n.Entries[0].Key != lo {
			return fmt.Errorf("btree: chunk %d first key %d != separator %d",
				id, n.Entries[0].Key, lo)
		}
		if len(leftmost) <= wantLevel {
			// walk is depth-first leftmost-first; record per-level heads.
			for len(leftmost) <= wantLevel {
				leftmost = append(leftmost, -1)
			}
		}
		if leftmost[wantLevel] == -1 {
			leftmost[wantLevel] = id
		}
		if n.IsLeaf() {
			return nil
		}
		if n.Next != -1 {
			return fmt.Errorf("btree: internal chunk %d has a next pointer", id)
		}
		for i, e := range n.Entries {
			if err := walk(int(e.Val), wantLevel-1, false, e.Key, true); err != nil {
				return err
			}
			_ = i
		}
		return nil
	}
	if err := walk(t.rootChunk, t.height-1, true, 0, false); err != nil {
		return err
	}
	// Leaf chain must enumerate exactly size keys in strict order.
	total := 0
	var prev uint64
	first := true
	if err := t.Range(0, ^uint64(0), func(k, _ uint64) bool {
		if !first && k <= prev {
			total = -1
			return false
		}
		first = false
		prev = k
		total++
		return true
	}); err != nil {
		return err
	}
	if total == -1 {
		return errors.New("btree: leaf chain out of order")
	}
	if total != t.size {
		return fmt.Errorf("btree: leaf chain has %d keys, size %d", total, t.size)
	}
	return nil
}
