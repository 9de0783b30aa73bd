package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// ExecBatch routes a batch through the shards: each search is duplicated
// into the sub-batch of every healthy shard whose coverage intersects it,
// each write goes into its owner's sub-batch (or fails immediately with
// UnhealthyError when the owner is down and no backup can be promoted),
// and the per-shard sub-batches execute as parallel client batches — each
// one a single ring write / TCP frame on its shard, exactly the batched
// fast path — before the partial result sets are merged back into
// submission order. Operations that hit a replica refusing service or
// shedding load retry individually through the routed single-op paths.
// Results reuses the caller's slice.
func (r Core[C]) ExecBatch(ops []proto.BatchOp, results []proto.BatchResult) []proto.BatchResult {
	results = results[:0]
	for range ops {
		results = append(results, proto.BatchResult{Method: proto.MethodFast})
	}
	if len(ops) == 0 {
		return results
	}
	r.x.Refresh(-1)
	k := len(r.cands)
	r.subOps = resetEach(r.subOps, k)
	r.subIdx = resetEach(r.subIdx, k)
	add := func(s, i int) {
		r.subOps[s] = append(r.subOps[s], ops[i])
		r.subIdx[s] = append(r.subIdx[s], i)
	}
	scatter := func(i int, q geo.Rect) {
		targets, ok := r.healthyTargets(q)
		if !ok {
			atomic.AddUint64(&r.stats.Skipped, 1)
			return
		}
		atomic.AddUint64(&r.stats.Fanout, uint64(len(targets)))
		for _, t := range targets {
			add(t, i)
		}
	}
	for i, op := range ops {
		switch op.Type {
		case wire.MsgInsert, wire.MsgDelete:
			owner, err := r.writeTarget(op.Rect)
			if err != nil {
				results[i].Err = err
				continue
			}
			add(owner, i)
		case wire.MsgMove:
			atomic.AddUint64(&r.stats.Moves, 1)
			if r.m.Owner(op.Rect) != r.m.Owner(op.Rect2) {
				// A cross-owner move spans two shards' sub-batches, which no
				// single latch covers: run it through the routed two-write
				// path (insert at destination, delete at source) right away.
				// This executes ahead of the batch's deferred same-owner
				// sub-ops, so a cross-owner move is ordered against other
				// ops on the same entry only across ExecBatch calls — a
				// caller chaining several moves of one entry through a
				// single batch must keep the chain within one owner.
				results[i].Err = r.moveAcross(op.Rect, op.Rect2, op.Ref)
				continue
			}
			owner, err := r.writeTarget(op.Rect2)
			if err != nil {
				results[i].Err = err
				continue
			}
			add(owner, i)
		case wire.MsgKNN:
			// A kNN's result set is not bounded by its (degenerate) query
			// rect, so it cannot ride the coverage-intersection scatter: fan
			// it to every healthy shard for a local k-best each, reduced to
			// the global k-best after the merge below. The batch trades the
			// single-op path's best-first pruning for staying on the batched
			// fast path.
			atomic.AddUint64(&r.stats.KNNs, 1)
			scatter(i, everything())
		default:
			atomic.AddUint64(&r.stats.Searches, 1)
			scatter(i, op.Rect)
		}
	}
	// Issue every non-empty sub-batch in parallel.
	busy := r.busy[:0]
	for s := 0; s < k; s++ {
		if len(r.subOps[s]) > 0 {
			busy = append(busy, s)
		}
	}
	r.busy = busy
	if len(busy) == 0 {
		return results
	}
	for len(r.subRes) < k {
		r.subRes = append(r.subRes, nil)
	}
	r.x.Fork(len(busy), func(x Exec[C], slot int) {
		s := busy[slot]
		r.subRes[s] = x.Bind(r.Serving(s)).ExecBatch(r.subOps[s], r.subRes[s])
	})
	// Merge in shard order; sub-ops of one original op keep shard order
	// too, so merged item order is deterministic.
	for _, s := range busy {
		for j, res := range r.subRes[s] {
			i := r.subIdx[s][j]
			if res.Err != nil && results[i].Err == nil {
				results[i].Err = fmt.Errorf("shard %d: %w", s, res.Err)
			}
			results[i].Items = append(results[i].Items, res.Items...)
			// Offloading is sticky so the merged method reports whether any
			// shard's sub-search ran as a client-side traversal.
			if results[i].Method != proto.MethodOffload {
				results[i].Method = res.Method
			}
		}
	}
	// Each shard answered a batched kNN with its own ascending k-best; the
	// global k-best is the distance-ordered, deduplicated head of the merged
	// union. Distances recompute bit-exactly from the round-tripped rects,
	// so the reduction matches a local Nearest over the union of the shards.
	for i := range results {
		if ops[i].Type == wire.MsgKNN && results[i].Err == nil {
			results[i].Items = KBestItems(results[i].Items, int(ops[i].Ref), ops[i].Rect)
		}
	}
	// Repair pass: operations that hit a replica refusing service,
	// shedding load or fencing off a drained cell retry individually
	// through the routed single-op paths, which fall back to a backup,
	// promote one, back off or refresh the map as the error class demands.
	// Those errors only occur on replicated, admission-controlled or
	// resharded deployments, so this loop is inert elsewhere.
	for i := range results {
		err := results[i].Err
		if err == nil || (!r.x.Failover(err) && !r.x.Overloaded(err) && !errors.Is(err, proto.ErrWrongShard)) {
			continue
		}
		op := ops[i]
		results[i].Items = results[i].Items[:0]
		switch op.Type {
		case wire.MsgInsert:
			results[i].Err = r.Insert(op.Rect, op.Ref)
		case wire.MsgDelete:
			results[i].Err = r.Delete(op.Rect, op.Ref)
		case wire.MsgMove:
			results[i].Err = r.Move(op.Rect, op.Rect2, op.Ref)
		case wire.MsgKNN:
			x, y := op.Rect.Center()
			nbrs, m, err := r.Nearest(int(op.Ref), x, y)
			results[i].Items = append(results[i].Items, proto.ItemsOfNeighbors(nbrs)...)
			results[i].Method = m
			results[i].Err = err
		default:
			items, m, err := r.Search(op.Rect)
			results[i].Items = append(results[i].Items, items...)
			results[i].Method = m
			results[i].Err = err
		}
	}
	if r.dedup {
		for i := range results {
			if len(results[i].Items) > 1 {
				results[i].Items = dedupItems(results[i].Items)
			}
		}
	}
	return results
}

// resetEach returns s with length k and every inner slice emptied, keeping
// the backing arrays.
func resetEach[T any](s [][]T, k int) [][]T {
	for len(s) < k {
		s = append(s, nil)
	}
	s = s[:k]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// KBestItems reduces the concatenation of per-shard k-best lists to the
// global k nearest: sort by recomputed distance in rtree.NeighborLess order,
// dedup identical entries from reshard dual-write windows, keep k.
func KBestItems(items []wire.Item, k int, q geo.Rect) []wire.Item {
	x, y := q.Center()
	neighbor := func(it wire.Item) rtree.Neighbor {
		return rtree.Neighbor{Rect: it.Rect, Ref: it.Ref, DistSq: it.Rect.DistSqToPoint(x, y)}
	}
	sort.Slice(items, func(a, b int) bool { return rtree.NeighborLess(neighbor(items[a]), neighbor(items[b])) })
	out := items[:0]
	for _, it := range items {
		if len(out) > 0 {
			if last := out[len(out)-1]; last.Ref == it.Ref && last.Rect == it.Rect {
				continue
			}
		}
		out = append(out, it)
		if len(out) == k {
			break
		}
	}
	return out
}
