package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
)

// Move relocates entry (from, ref) to (to, ref). When both positions are
// owned by the same shard it is a single MsgMove round trip, atomic under
// that server's tree latch; otherwise see moveAcross. A MOVE the fence
// refused was applied nowhere, so it is routed afresh on the refreshed map,
// where its two positions may have different owners.
func (r Core[C]) Move(from, to geo.Rect, ref uint64) error {
	atomic.AddUint64(&r.stats.Moves, 1)
	r.x.Refresh(-1)
	for attempt := 0; ; attempt++ {
		if r.m.Owner(from) != r.m.Owner(to) {
			return r.moveAcross(from, to, ref)
		}
		owner, err := r.writeTarget(to)
		if err != nil {
			return err
		}
		err = r.writeShard(owner, func(c Replica) error { return c.Move(from, to, ref) })
		if attempt == fenceRetries || !errors.Is(err, proto.ErrWrongShard) {
			return err
		}
		r.x.Refresh(owner)
	}
}

// moveAcross moves an entry across an ownership boundary, which no single
// latch covers: the router inserts at the destination owner first and then
// deletes at the source owner, so a concurrent search may transiently
// observe the object twice but never absent. The source delete tolerates
// ErrNotFound — a move is an upsert, exactly like the single-shard
// MsgMove, so moving an object that was never inserted (or whose source
// copy a repaired retry already removed) degrades to a plain insert.
func (r Core[C]) moveAcross(from, to geo.Rect, ref uint64) error {
	if err := r.write(to, func(c Replica) error { return c.Insert(to, ref) }); err != nil {
		return err
	}
	err := r.write(from, func(c Replica) error { return c.Delete(from, ref) })
	if errors.Is(err, proto.ErrNotFound) {
		err = nil
	}
	return err
}

// Nearest answers a k-nearest-neighbor query across the shards with a
// best-first gather: shards are visited in ascending order of CoverDistSq
// — the lower bound on any entry a shard can own — and the gather stops as
// soon as k results are held and the next shard's bound exceeds the
// current kth distance. On typical point queries that prunes the scatter
// to one or two shards, versus the full fan-out a range search needs.
// Partial results merge in rtree.NeighborLess order and dedup by identity,
// so an entry dual-written during a reshard window counts once; every
// shard's tree answers in that order too, so the gather returns exactly
// what one tree over the union of the shards would, ties included. An
// unhealthy shard without backups is skipped (counted in Stats().Skipped):
// kNN availability degrades like Search availability rather than blocking.
// The reported method is the first visited shard's (kNN never offloads, so
// it is fast, tcp or fetch).
func (r Core[C]) Nearest(k int, x, y float64) ([]rtree.Neighbor, proto.Method, error) {
	atomic.AddUint64(&r.stats.KNNs, 1)
	if k <= 0 {
		return nil, proto.MethodFast, rtree.ErrBadK
	}
	r.x.Refresh(-1)
	order := make([]int, r.m.K())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := r.m.CoverDistSq(order[a], x, y), r.m.CoverDistSq(order[b], x, y)
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	method := proto.MethodFast
	visited := false
	var best []rtree.Neighbor
	for _, s := range order {
		if len(best) >= k && r.m.CoverDistSq(s, x, y) > best[k-1].DistSq {
			break
		}
		if len(r.cands[s]) <= 1 && !r.Healthy(s) {
			atomic.AddUint64(&r.stats.Skipped, 1)
			continue
		}
		nbrs, m, err := r.knnShard(s, k, x, y)
		if err != nil {
			return nil, m, fmt.Errorf("shard %d: %w", s, err)
		}
		atomic.AddUint64(&r.stats.Fanout, 1)
		if !visited {
			method, visited = m, true
		}
		best = MergeNeighbors(best, nbrs, k)
	}
	return best, method, nil
}

// knnShard runs one kNN sub-query on shard s.
func (r Core[C]) knnShard(s, k int, x, y float64) ([]rtree.Neighbor, proto.Method, error) {
	return readShard(r, r.x, s, func(c Replica) ([]rtree.Neighbor, proto.Method, error) {
		return c.Nearest(k, x, y)
	})
}

// MergeNeighbors merges two neighbor lists in rtree.NeighborLess order,
// keeping at most k. Identical entries land adjacent, where the dedup drops
// the copy a reshard dual-write window may have produced.
func MergeNeighbors(a, b []rtree.Neighbor, k int) []rtree.Neighbor {
	out := make([]rtree.Neighbor, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var n rtree.Neighbor
		switch {
		case j >= len(b):
			n, i = a[i], i+1
		case i >= len(a):
			n, j = b[j], j+1
		case rtree.NeighborLess(a[i], b[j]):
			n, i = a[i], i+1
		default:
			n, j = b[j], j+1
		}
		if len(out) > 0 && sameNeighbor(out[len(out)-1], n) {
			continue
		}
		out = append(out, n)
		if len(out) == k {
			break
		}
	}
	return out
}

func sameNeighbor(a, b rtree.Neighbor) bool {
	return a.Ref == b.Ref && a.Rect == b.Rect
}
