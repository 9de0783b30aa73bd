// Package rtree implements the R*-tree (Beckmann, Kriegel, Schneider,
// Seeger, SIGMOD 1990) used by Catfish, stored node-per-chunk in an
// RDMA-registered memory region so clients can traverse it with one-sided
// reads.
//
// The paper stores 2-dimensional rectangles with four double-precision
// coordinates in leaf nodes; internal nodes hold the minimum bounding
// rectangles (MBRs) of their children. Insertion and node splitting follow
// the R*-tree mechanisms (ChooseSubtree with overlap minimization at the
// leaf level, margin-driven split-axis selection, overlap-driven
// distribution, and forced reinsertion), as §II-A and §III-A of the paper
// specify.
//
// The tree itself performs no synchronization: Catfish serializes writers
// through the server (tree latch) and lets lockless readers validate
// per-cacheline versions at the region layer.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/catfish-db/catfish/internal/geo"
)

// On-chunk node layout (little-endian), inside the region chunk payload:
//
//	offset 0:  level  uint32 (0 = leaf)
//	offset 4:  count  uint32
//	offset 8:  reserved (8 bytes, zero)
//	offset 16: count entries of 40 bytes:
//	             minX, maxX, minY, maxY float64, ref uint64
//
// For internal nodes ref is a child chunk ID; for leaves it is the caller's
// opaque item reference.
const (
	headerSize = 16
	// EntrySize is the encoded size of one node entry.
	EntrySize = 40
)

// Errors returned by node decoding and tree operations.
var (
	ErrCorruptNode = errors.New("rtree: corrupt node encoding")
	ErrInvalidRect = errors.New("rtree: invalid rectangle")
)

// Entry is one slot of a node: a rectangle plus either a child chunk ID
// (internal nodes) or an item reference (leaves).
type Entry struct {
	Rect geo.Rect
	Ref  uint64
}

// Node is the decoded form of an R-tree node. Level 0 is a leaf. Node is
// exported because the offloading client decodes nodes from raw RDMA Read
// images and traverses them itself.
type Node struct {
	Level   int
	Entries []Entry
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// MBR returns the minimum bounding rectangle of the node's entries, or the
// zero Rect for an empty node.
func (n *Node) MBR() geo.Rect {
	if len(n.Entries) == 0 {
		return geo.Rect{}
	}
	out := n.Entries[0].Rect
	for _, e := range n.Entries[1:] {
		out = out.Union(e.Rect)
	}
	return out
}

// EncodedSize returns the number of payload bytes the node occupies.
func (n *Node) EncodedSize() int { return headerSize + len(n.Entries)*EntrySize }

// Encode appends the node's on-chunk encoding to buf and returns it.
func (n *Node) Encode(buf []byte) []byte {
	need := n.EncodedSize()
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(n.Level))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(n.Entries)))
	binary.LittleEndian.PutUint64(buf[8:], 0)
	off := headerSize
	for _, e := range n.Entries {
		binary.LittleEndian.PutUint64(buf[off+0:], math.Float64bits(e.Rect.MinX))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.Rect.MaxX))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(e.Rect.MinY))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(e.Rect.MaxY))
		binary.LittleEndian.PutUint64(buf[off+32:], e.Ref)
		off += EntrySize
	}
	return buf
}

// DecodeNode parses a node from chunk payload bytes into n, reusing n's
// entry slice. maxEntries bounds the accepted count (pass 0 to accept any
// count that fits the payload).
func DecodeNode(payload []byte, n *Node, maxEntries int) error {
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
	// Fields are stored straight into each slot: no Entry is built and
	// copied, and one bounds check per entry covers its five loads.
	body := payload[headerSize : headerSize+int(count)*EntrySize]
	for i := range n.Entries {
		p := (*[EntrySize]byte)(body[i*EntrySize:])
		e := &n.Entries[i]
		e.Rect.MinX = math.Float64frombits(binary.LittleEndian.Uint64(p[0:8]))
		e.Rect.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(p[8:16]))
		e.Rect.MinY = math.Float64frombits(binary.LittleEndian.Uint64(p[16:24]))
		e.Rect.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(p[24:32]))
		e.Ref = binary.LittleEndian.Uint64(p[32:40])
	}
	return nil
}

// NodeCapacity returns the maximum entry count a chunk with the given
// payload size can hold.
func NodeCapacity(payloadSize int) int {
	if payloadSize < headerSize {
		return 0
	}
	return (payloadSize - headerSize) / EntrySize
}
