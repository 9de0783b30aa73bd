package rtree

import (
	"errors"
	"math"
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

// NeighborLess is the order every kNN answer follows: ascending DistSq, ties
// broken by Ref, then Rect.MinX, then Rect.MinY. The tree's search, the shard
// gather's merge and the batched k-best reduction all use it, so which of
// several equidistant entries make the k-th place — and the order they come
// out in — is fixed by the data, never by a heap's pop order, and a K-shard
// gather returns exactly the single-tree answer.
func NeighborLess(a, b Neighbor) bool {
	if a.DistSq != b.DistSq {
		return a.DistSq < b.DistSq
	}
	if a.Ref != b.Ref {
		return a.Ref < b.Ref
	}
	if a.Rect.MinX != b.Rect.MinX {
		return a.Rect.MinX < b.Rect.MinX
	}
	return a.Rect.MinY < b.Rect.MinY
}

// nodeRef is a subtree waiting in the kNN queue: its chunk and the least
// squared distance any entry under it can have.
type nodeRef struct {
	distSq float64
	chunk  int
}

// knnScratch is one kNN's working set: a min-queue of subtrees still to
// expand and a max-heap of the k best candidates seen so far, whose root is
// the current k-th neighbor.
type knnScratch struct {
	queue []nodeRef
	best  []Neighbor
}

// maxPooledScratch caps the capacity, in elements, of a queue or candidate
// heap that goes back to the pool: a kNN with k near Len() grows both to
// tree size, and pooling them would pin that memory for every later query.
const maxPooledScratch = 1024

var knnScratches = sync.Pool{New: func() any { return new(knnScratch) }}

func getKNNScratch() *knnScratch { return knnScratches.Get().(*knnScratch) }

func putKNNScratch(s *knnScratch) {
	if cap(s.queue) > maxPooledScratch || cap(s.best) > maxPooledScratch {
		return
	}
	s.queue, s.best = s.queue[:0], s.best[:0]
	knnScratches.Put(s)
}

func (s *knnScratch) pushNode(r nodeRef) {
	s.queue = append(s.queue, r)
	q := s.queue
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].distSq < q[i].distSq) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *knnScratch) popNode() nodeRef {
	q := s.queue
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].distSq < q[j].distSq {
			j = j2
		}
		if !(q[j].distSq < q[i].distSq) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	s.queue = q[:n]
	return q[n]
}

// offer keeps nb if it is among the k best seen so far.
func (s *knnScratch) offer(k int, nb Neighbor) {
	b := s.best
	if len(b) < k {
		b = append(b, nb)
		for j := len(b) - 1; j > 0; {
			i := (j - 1) / 2 // parent
			if !NeighborLess(b[i], b[j]) {
				break
			}
			b[i], b[j] = b[j], b[i]
			j = i
		}
		s.best = b
		return
	}
	if NeighborLess(nb, b[0]) {
		b[0] = nb
		siftDownWorst(b, 0)
	}
}

// siftDownWorst restores the max-heap property of b below index i.
func siftDownWorst(b []Neighbor, i int) {
	n := len(b)
	for {
		j := 2*i + 1 // left child
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && NeighborLess(b[j], b[j2]) {
			j = j2
		}
		if !NeighborLess(b[i], b[j]) {
			return
		}
		b[i], b[j] = b[j], b[i]
		i = j
	}
}

// sortBest heap-sorts the candidates in place into NeighborLess order.
func (s *knnScratch) sortBest() {
	b := s.best
	for end := len(b) - 1; end > 0; end-- {
		b[0], b[end] = b[end], b[0]
		siftDownWorst(b[:end], 0)
	}
}

// nearest is the one kNN traversal, a bounded best-first search
// (Roussopoulos et al. 1995; Hjaltason & Samet 1999). Subtrees are expanded
// in ascending order of their least possible distance. bound is the k-th
// candidate's distance once k are held, +Inf before: a leaf entry is offered
// to the candidate heap, and a child subtree queued, only if it lies within
// bound, and the walk stops at the first subtree beyond it. So it reads
// exactly the nodes whose rectangles lie within the k-th neighbor's distance
// (all of them when the tree holds fewer than k items), and s.best ends as
// the k least entries under NeighborLess, in that order. It keeps its
// statistics in locals and its working set in s, touching no tree scratch
// state, so kNNs may run concurrently provided no writer does.
func (t *Tree) nearest(k int, x, y float64, s *knnScratch) (OpStats, error) {
	var st OpStats
	bound := math.Inf(1)
	s.pushNode(nodeRef{chunk: t.rootChunk})
	for len(s.queue) > 0 {
		r := s.popNode()
		if r.distSq > bound {
			break
		}
		n, err := t.load(r.chunk)
		if err != nil {
			return st, err
		}
		st.NodesRead++
		if !n.IsLeaf() {
			for _, e := range n.Entries {
				if d := e.Rect.DistSqToPoint(x, y); d <= bound {
					s.pushNode(nodeRef{distSq: d, chunk: int(e.Ref)})
				}
			}
			continue
		}
		for _, e := range n.Entries {
			if d := e.Rect.DistSqToPoint(x, y); d <= bound {
				s.offer(k, Neighbor{Rect: e.Rect, Ref: e.Ref, DistSq: d})
				if len(s.best) == k {
					bound = s.best[0].DistSq
				}
			}
		}
	}
	s.sortBest()
	st.Results = len(s.best)
	return st, nil
}

// Nearest returns the k stored entries whose rectangles lie nearest to the
// point (x, y), in NeighborLess order (fewer when the tree holds fewer
// items). A warmed call allocates only the result.
func (t *Tree) Nearest(k int, x, y float64) ([]Neighbor, OpStats, error) {
	var out []Neighbor
	st, err := t.nearestEach(k, x, y, func(best []Neighbor) {
		out = make([]Neighbor, len(best))
		copy(out, best)
	})
	return out, st, err
}

// nearestEach runs one kNN and, when it succeeds, hands fn the neighbors in
// NeighborLess order. The slice is pooled scratch, valid only during the
// call: Nearest copies it out, Query packs it as wire items and allocates
// nothing once warmed.
func (t *Tree) nearestEach(k int, x, y float64, fn func([]Neighbor)) (OpStats, error) {
	if k <= 0 {
		return OpStats{}, ErrBadK
	}
	s := getKNNScratch()
	defer putKNNScratch(s)
	st, err := t.nearest(k, x, y, s)
	if err == nil {
		fn(s.best)
	}
	return st, err
}
