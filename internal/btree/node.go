// Package btree implements a B+-tree stored node-per-chunk in the same
// RDMA-registered, version-protected memory region as the R-tree,
// demonstrating the paper's §VI claim that Catfish's three mechanisms —
// fast messaging, one-sided offloading, and the adaptive switch — form a
// framework for link-based data structures beyond R-trees.
//
// Keys and values are uint64 (a fixed-size layout keeps nodes chunk-
// aligned; variable-size values belong in a separate log the values point
// into, as in the key-value stores the paper cites). Leaves are chained
// left-to-right for range scans. Like the R-tree, the tree performs no
// synchronization itself: a server serializes writers, and lock-free remote
// readers validate per-cacheline versions and retry — the offloaded walk of
// internal/proto, which internal/kv instantiates over this tree.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// On-chunk node layout (little-endian), inside the region chunk payload:
//
//	offset 0:  level uint32 (0 = leaf)
//	offset 4:  count uint32
//	offset 8:  next  uint64 (right sibling chunk + 1; 0 = none; leaves only)
//	offset 16: count entries of 16 bytes: key uint64, val uint64
//
// Internal entries hold (separator key, child chunk ID): the separator is
// the smallest key in the child's subtree. Entries are sorted by key.
const (
	headerSize = 16
	entrySize  = 16
)

// Errors.
var (
	ErrCorruptNode = errors.New("btree: corrupt node encoding")
	ErrNotFound    = errors.New("btree: key not found")
)

// Entry is one slot of a node.
type Entry struct {
	Key uint64
	Val uint64 // child chunk ID in internal nodes
}

// Node is the decoded form of a B+-tree node.
type Node struct {
	Level   int
	Next    int // right-sibling chunk ID, -1 when none (leaves only)
	Entries []Entry
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// EncodedSize returns the payload bytes the node occupies.
func (n *Node) EncodedSize() int { return headerSize + len(n.Entries)*entrySize }

// Encode appends the node's on-chunk encoding to buf and returns it.
func (n *Node) Encode(buf []byte) []byte {
	need := n.EncodedSize()
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(n.Level))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(n.Entries)))
	next := uint64(0)
	if n.Next >= 0 {
		next = uint64(n.Next) + 1
	}
	binary.LittleEndian.PutUint64(buf[8:], next)
	off := headerSize
	for _, e := range n.Entries {
		binary.LittleEndian.PutUint64(buf[off:], e.Key)
		binary.LittleEndian.PutUint64(buf[off+8:], e.Val)
		off += entrySize
	}
	return buf
}

// DecodeNode parses a node from chunk payload bytes into n, reusing n's
// entry slice. maxEntries bounds the accepted count (0 = payload-bounded).
func DecodeNode(payload []byte, n *Node, maxEntries int) error {
	if len(payload) < headerSize {
		return fmt.Errorf("%w: short header", ErrCorruptNode)
	}
	level := binary.LittleEndian.Uint32(payload[0:])
	count := binary.LittleEndian.Uint32(payload[4:])
	if level > 64 {
		return fmt.Errorf("%w: level %d", ErrCorruptNode, level)
	}
	limit := (len(payload) - headerSize) / entrySize
	if int(count) > limit || (maxEntries > 0 && int(count) > maxEntries) {
		return fmt.Errorf("%w: count %d", ErrCorruptNode, count)
	}
	next := binary.LittleEndian.Uint64(payload[8:])
	if next > math.MaxInt {
		return fmt.Errorf("%w: next %d", ErrCorruptNode, next)
	}
	n.Level = int(level)
	n.Next = int(next) - 1
	if cap(n.Entries) < int(count) {
		n.Entries = make([]Entry, count)
	}
	n.Entries = n.Entries[:count]
	off := headerSize
	for i := range n.Entries {
		n.Entries[i] = Entry{
			Key: binary.LittleEndian.Uint64(payload[off:]),
			Val: binary.LittleEndian.Uint64(payload[off+8:]),
		}
		off += entrySize
	}
	// Keys must be strictly sorted; a violation marks a stale/garbage node.
	for i := 1; i < len(n.Entries); i++ {
		if n.Entries[i-1].Key >= n.Entries[i].Key {
			return fmt.Errorf("%w: unsorted keys", ErrCorruptNode)
		}
	}
	return nil
}

// NodeCapacity returns the maximum entries a payload of the given size
// holds.
func NodeCapacity(payloadSize int) int {
	if payloadSize < headerSize {
		return 0
	}
	return (payloadSize - headerSize) / entrySize
}

// Search returns the index of the first entry with key >= k, in [0, count].
func (n *Node) Search(k uint64) int {
	lo, hi := 0, len(n.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.Entries[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ChildIndex returns the index of the child subtree that may contain k:
// the rightmost entry with separator <= k (0 when k precedes all).
func (n *Node) ChildIndex(k uint64) int {
	i := n.Search(k)
	if i < len(n.Entries) && n.Entries[i].Key == k {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}
