package rtree

import (
	"errors"
	"fmt"
	"sync"

	"github.com/catfish-db/catfish/internal/geo"
)

// ErrBadK is returned by Nearest for non-positive k.
var ErrBadK = errors.New("rtree: k must be positive")

// Neighbor is one nearest-neighbor result.
type Neighbor struct {
	Rect   geo.Rect
	Ref    uint64
	DistSq float64 // squared Euclidean distance to the query point
}

// knnItem is a priority-queue element: either a node to expand or a
// candidate leaf entry.
type knnItem struct {
	distSq float64
	isItem bool
	// node expansion:
	chunk int
	// leaf entry:
	entry Entry
}

// knnHeap is a binary min-heap on distSq. push and pop are container/heap's
// Push and Pop written out for the element type, so nothing is boxed per
// node expansion and ties resolve exactly as they always have.
type knnHeap []knnItem

func (h *knnHeap) push(it knnItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(s[j].distSq < s[i].distSq) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *knnHeap) pop() knnItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].distSq < s[j].distSq {
			j = j2
		}
		if !(s[j].distSq < s[i].distSq) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// expand pushes n's entries: candidates for a leaf, child nodes otherwise.
func (h *knnHeap) expand(n *Node, x, y float64) {
	for _, e := range n.Entries {
		child := knnItem{distSq: e.Rect.DistSqToPoint(x, y)}
		if n.IsLeaf() {
			child.isItem = true
			child.entry = e
		} else {
			child.chunk = int(e.Ref)
		}
		h.push(child)
	}
}

// knnHeaps recycles NearestShared's priority queues: concurrent readers
// each take their own, and a warmed one serves a kNN without allocating.
var knnHeaps = sync.Pool{New: func() any { return new(knnHeap) }}

// Nearest returns the k stored entries whose rectangles lie nearest to the
// point (x, y), in ascending distance order (fewer when the tree holds
// fewer items). It runs the classic best-first search: a priority queue
// ordered by minimum possible distance, expanding nodes lazily, so it
// touches only the nodes whose bounding boxes could contain a result.
func (t *Tree) Nearest(k int, x, y float64) ([]Neighbor, OpStats, error) {
	if k <= 0 {
		return nil, OpStats{}, ErrBadK
	}
	t.stats = OpStats{}
	var pq knnHeap
	pq.push(knnItem{distSq: 0, chunk: t.rootChunk})
	out := make([]Neighbor, 0, k)
	for len(pq) > 0 {
		it := pq.pop()
		if it.isItem {
			out = append(out, Neighbor{Rect: it.entry.Rect, Ref: it.entry.Ref, DistSq: it.distSq})
			t.stats.Results++
			if len(out) == k {
				return out, t.stats, nil
			}
			continue
		}
		n, err := t.readNode(it.chunk)
		if err != nil {
			return out, t.stats, err
		}
		pq.expand(n, x, y)
	}
	return out, t.stats, nil
}

// NearestShared is Nearest for concurrent callers, emitting the neighbors
// to fn in ascending distance order instead of returning a slice: it serves
// nodes from the write-through cache and keeps its statistics in locals,
// touching no tree scratch state, so parallel kNNs can run under a shared
// read latch exactly like SearchShared. Requires the node cache
// (ErrNeedCache). The traversal — heap, push order, tie resolution — is
// Nearest's, so the two produce bit-identical results for the same tree
// state.
func (t *Tree) NearestShared(k int, x, y float64, fn func(Neighbor)) (OpStats, error) {
	var st OpStats
	if k <= 0 {
		return st, ErrBadK
	}
	if t.cache == nil {
		return st, ErrNeedCache
	}
	pq := knnHeaps.Get().(*knnHeap)
	defer func() {
		*pq = (*pq)[:0]
		knnHeaps.Put(pq)
	}()
	pq.push(knnItem{distSq: 0, chunk: t.rootChunk})
	for len(*pq) > 0 {
		it := pq.pop()
		if it.isItem {
			fn(Neighbor{Rect: it.entry.Rect, Ref: it.entry.Ref, DistSq: it.distSq})
			st.Results++
			if st.Results == k {
				return st, nil
			}
			continue
		}
		n := t.cache[it.chunk]
		if n == nil {
			return st, fmt.Errorf("rtree: chunk %d missing from cache", it.chunk)
		}
		st.NodesRead++
		pq.expand(n, x, y)
	}
	return st, nil
}
