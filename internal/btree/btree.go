package btree

import (
	"errors"
	"fmt"

	"github.com/catfish-db/catfish/internal/region"
)

// Publisher writes a node's encoded payload into a region chunk (the same
// hook the R-tree exposes; a Catfish-style server can stage writes through
// it to open torn-read windows).
type Publisher = func(chunkID int, payload []byte) error

// Config tunes a Tree.
type Config struct {
	// MaxEntries is the node capacity (0 selects the chunk capacity,
	// capped at 224 — height 3 for tens of millions of keys).
	MaxEntries int
}

// ErrExists is returned by Insert when the key is already present.
var ErrExists = errors.New("btree: key already exists")

// Tree is a B+-tree stored node-per-chunk in a memory region. Not safe for
// concurrent use; serialize writers externally (the server's latch).
type Tree struct {
	reg        *region.Region
	publish    Publisher
	maxEntries int
	minEntries int

	rootChunk int
	height    int
	size      int

	// cache holds the decoded node of every live chunk, by chunk ID: every
	// node is published through writeNode, which stores it here, so the
	// tree reads no node back from the region (the server is its only
	// writer).
	cache []*Node

	rawBuf     []byte
	payloadBuf []byte
	encodeBuf  []byte
}

// New creates an empty tree whose nodes live in reg. The root chunk is
// stable for the tree's lifetime (clients cache it, as with the R-tree).
func New(reg *region.Region, cfg Config) (*Tree, error) {
	capacity := NodeCapacity(reg.PayloadSize())
	maxE := cfg.MaxEntries
	if maxE == 0 {
		maxE = capacity
		if maxE > 224 {
			maxE = 224
		}
	}
	if maxE < 4 {
		return nil, fmt.Errorf("btree: MaxEntries %d too small", maxE)
	}
	if maxE > capacity {
		return nil, fmt.Errorf("btree: MaxEntries %d exceeds chunk capacity %d", maxE, capacity)
	}
	t := &Tree{
		reg:        reg,
		publish:    reg.WriteChunkPrefix,
		maxEntries: maxE,
		minEntries: maxE / 2,
		height:     1,
		cache:      make([]*Node, reg.NumChunks()),
		rawBuf:     make([]byte, reg.ChunkSize()),
		payloadBuf: make([]byte, 0, reg.PayloadSize()),
	}
	root, err := reg.Alloc()
	if err != nil {
		return nil, fmt.Errorf("btree: alloc root: %w", err)
	}
	t.rootChunk = root
	if err := t.writeNode(root, &Node{Level: 0, Next: -1}); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// RootChunk returns the stable root chunk ID.
func (t *Tree) RootChunk() int { return t.rootChunk }

// MaxEntries returns the node capacity.
func (t *Tree) MaxEntries() int { return t.maxEntries }

// Region returns the backing region.
func (t *Tree) Region() *region.Region { return t.reg }

// SetPublisher replaces the node publisher (nil restores the default).
func (t *Tree) SetPublisher(pub Publisher) {
	if pub == nil {
		pub = t.reg.WriteChunkPrefix
	}
	t.publish = pub
}

// readNode returns the decoded node for chunk id from the write-through
// cache; a miss is an error.
func (t *Tree) readNode(id int) (*Node, error) {
	if n := t.cache[id]; n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("btree: chunk %d missing from cache", id)
}

// readNodeRegion decodes chunk id from the region bytes. CheckInvariants
// uses it to validate what one-sided readers would see.
func (t *Tree) readNodeRegion(id int) (*Node, error) {
	payload, _, err := t.reg.ReadChunk(id, t.rawBuf, t.payloadBuf)
	if err != nil {
		return nil, fmt.Errorf("btree: read chunk %d: %w", id, err)
	}
	t.payloadBuf = payload
	n := &Node{}
	if err := DecodeNode(payload, n, t.maxEntries+1); err != nil {
		return nil, fmt.Errorf("btree: chunk %d: %w", id, err)
	}
	return n, nil
}

func (t *Tree) writeNode(id int, n *Node) error {
	t.encodeBuf = n.Encode(t.encodeBuf)
	if err := t.publish(id, t.encodeBuf); err != nil {
		return fmt.Errorf("btree: publish chunk %d: %w", id, err)
	}
	t.cache[id] = n
	return nil
}

func (t *Tree) freeChunk(id int) error {
	t.cache[id] = nil
	return t.reg.Free(id)
}

// Get returns the value stored under key.
func (t *Tree) Get(key uint64) (uint64, error) {
	id := t.rootChunk
	for {
		n, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if n.IsLeaf() {
			i := n.Search(key)
			if i < len(n.Entries) && n.Entries[i].Key == key {
				return n.Entries[i].Val, nil
			}
			return 0, ErrNotFound
		}
		if len(n.Entries) == 0 {
			return 0, ErrNotFound
		}
		id = int(n.Entries[n.ChildIndex(key)].Val)
	}
}

// path element for root-to-leaf descents.
type pathElem struct {
	id    int
	node  *Node
	child int // index taken within node (internal levels)
}

func (t *Tree) descend(key uint64) ([]pathElem, error) {
	var path []pathElem
	id := t.rootChunk
	for {
		n, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		pe := pathElem{id: id, node: n}
		if n.IsLeaf() {
			path = append(path, pe)
			return path, nil
		}
		pe.child = n.ChildIndex(key)
		path = append(path, pe)
		id = int(n.Entries[pe.child].Val)
	}
}

// Insert stores key -> val. It returns ErrExists when the key is present
// (use Update to overwrite).
func (t *Tree) Insert(key, val uint64) error {
	return t.put(key, val, false)
}

// Update stores key -> val, overwriting an existing binding.
func (t *Tree) Update(key, val uint64) error {
	return t.put(key, val, true)
}

func (t *Tree) put(key, val uint64, overwrite bool) error {
	root, err := t.readNode(t.rootChunk)
	if err != nil {
		return err
	}
	if !root.IsLeaf() && len(root.Entries) == 0 {
		return fmt.Errorf("btree: corrupt empty internal root")
	}
	path, err := t.descend(key)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	i := leaf.node.Search(key)
	if i < len(leaf.node.Entries) && leaf.node.Entries[i].Key == key {
		if !overwrite {
			return ErrExists
		}
		leaf.node.Entries[i].Val = val
		return t.writeNode(leaf.id, leaf.node)
	}
	leaf.node.Entries = append(leaf.node.Entries, Entry{})
	copy(leaf.node.Entries[i+1:], leaf.node.Entries[i:])
	leaf.node.Entries[i] = Entry{Key: key, Val: val}
	t.size++
	// The leaf's smallest key may have changed: refresh separators.
	if i == 0 {
		if err := t.refreshSeparators(path); err != nil {
			return err
		}
	}
	if len(leaf.node.Entries) <= t.maxEntries {
		return t.writeNode(leaf.id, leaf.node)
	}
	return t.splitUp(path)
}

// refreshSeparators updates ancestors' separator keys after a leftmost-key
// change at the bottom of path.
func (t *Tree) refreshSeparators(path []pathElem) error {
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i]
		childFirst := path[i+1].node.Entries[0].Key
		if parent.node.Entries[parent.child].Key == childFirst {
			return nil
		}
		parent.node.Entries[parent.child].Key = childFirst
		if err := t.writeNode(parent.id, parent.node); err != nil {
			return err
		}
		if parent.child != 0 {
			return nil
		}
	}
	return nil
}

// splitUp splits the overflowing node at the bottom of path, propagating
// splits toward the root.
func (t *Tree) splitUp(path []pathElem) error {
	for d := len(path) - 1; d >= 0; d-- {
		pe := path[d]
		n := pe.node
		if len(n.Entries) <= t.maxEntries {
			return t.writeNode(pe.id, n)
		}
		mid := len(n.Entries) / 2
		rightID, err := t.reg.Alloc()
		if err != nil {
			return err
		}
		right := &Node{
			Level:   n.Level,
			Next:    -1,
			Entries: append([]Entry(nil), n.Entries[mid:]...),
		}
		if n.IsLeaf() {
			right.Next = n.Next
			n.Next = rightID
		}
		n.Entries = n.Entries[:mid]
		sep := Entry{Key: right.Entries[0].Key, Val: uint64(rightID)}

		if d == 0 {
			// Root split: both halves move so the root chunk stays put.
			leftID, err := t.reg.Alloc()
			if err != nil {
				return err
			}
			left := &Node{Level: n.Level, Next: n.Next, Entries: n.Entries}
			if n.IsLeaf() {
				left.Next = rightID
			}
			if err := t.writeNode(leftID, left); err != nil {
				return err
			}
			if err := t.writeNode(rightID, right); err != nil {
				return err
			}
			newRoot := &Node{
				Level: n.Level + 1,
				Next:  -1,
				Entries: []Entry{
					{Key: left.Entries[0].Key, Val: uint64(leftID)},
					sep,
				},
			}
			t.height++
			return t.writeNode(t.rootChunk, newRoot)
		}

		// B-link publication order: the right sibling becomes visible
		// before the left half is truncated, so a concurrent lock-free
		// reader never observes a key that is in neither node — between
		// the two writes a key may appear in both (harmless), and after
		// the truncation a reader that lands left of its key can move
		// right along the leaf chain.
		if err := t.writeNode(rightID, right); err != nil {
			return err
		}
		if err := t.writeNode(pe.id, n); err != nil {
			return err
		}
		parent := path[d-1]
		pi := parent.child + 1
		parent.node.Entries = append(parent.node.Entries, Entry{})
		copy(parent.node.Entries[pi+1:], parent.node.Entries[pi:])
		parent.node.Entries[pi] = sep
		// Loop continues: the parent may itself overflow.
	}
	return nil
}

// Range invokes fn for every key in [from, to] in ascending order; fn
// returning false stops the scan. It walks the leaf chain.
func (t *Tree) Range(from, to uint64, fn func(key, val uint64) bool) error {
	// Find the first leaf the way Get does, then follow the chain.
	n, err := t.readNode(t.rootChunk)
	for err == nil && !n.IsLeaf() && len(n.Entries) > 0 {
		n, err = t.readNode(int(n.Entries[n.ChildIndex(from)].Val))
	}
	for err == nil {
		for i := n.Search(from); i < len(n.Entries); i++ {
			e := n.Entries[i]
			if e.Key > to {
				return nil
			}
			if !fn(e.Key, e.Val) {
				return nil
			}
		}
		if n.Next < 0 {
			return nil
		}
		n, err = t.readNode(n.Next)
	}
	return err
}
