package proto

import (
	"errors"
	"math"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// Partition is a shard map as the server core reads it; *shard.Map is one
// (the core cannot name it: the shard package imports this one).
type Partition interface {
	Owner(r geo.Rect) int
	K() int
}

// Live split phases, as Reshard reports them.
const (
	ReshardIdle int64 = iota
	ReshardDualWrite
	ReshardCommitted
)

// shardID is the identity a Serve serves: a map and its cell in it.
type shardID struct {
	m   Partition
	idx int
}

// split is an armed live split (DESIGN.md §5.11): the successor map, the
// cell it peels off, and the session to the new server that cell's writes
// are mirrored on — nil while the drain runs.
type split[X Exec] struct {
	next   Partition
	newIdx int
	send   func(x X, ops []BatchOp, results []BatchResult) []BatchResult
}

// SetShard installs the identity the core serves: map m, cell idx. With an
// identity and no split armed the core fences its cell: a write touching a
// rectangle another cell owns is refused with StatusWrongShard.
func (s *Serve[X]) SetShard(m Partition, idx int) { s.shard.Store(&shardID{m: m, idx: idx}) }

// Shard returns the served map (nil without an identity) and the cell.
func (s *Serve[X]) Shard() (Partition, int) { id := s.shard.Load(); return id.m, id.idx }

// Reshard reports the split phase and the entries splits streamed off.
func (s *Serve[X]) Reshard() (phase int64, moved uint64) { return s.phase.Load(), s.moved.Load() }

// owns is the fence: whether the core may apply req.
func (s *Serve[X]) owns(req wire.Request) bool {
	id := s.shard.Load()
	if id.m == nil || s.split.Load() != nil {
		return true
	}
	return id.m.Owner(req.Rect) == id.idx && (req.Type != wire.MsgMove || id.m.Owner(req.Rect2) == id.idx)
}

// snapshot returns every entry of the store; the exclusive latch is held.
func (s *Serve[X]) snapshot() ([]rtree.Entry, error) {
	all := geo.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	packed, _, err := s.cfg.Tree.Query(wire.Request{Type: wire.MsgSearch, Rect: all}, nil)
	if err != nil {
		return nil, err
	}
	items, err := wire.DecodeItems(packed, len(packed)/wire.ItemSize)
	entries := make([]rtree.Entry, len(items))
	for i, it := range items {
		entries[i] = rtree.Entry{Rect: it.Rect, Ref: it.Ref}
	}
	return entries, err
}

// Prepare is a split's first step, on x. Under one exclusive latch hold
// (requests wait on it) it snapshots the store, takes from successor the
// map that splits the served cell in two, the new cell last, streams the
// new cell's entries to the new server through send, 128 inserts a batch,
// and arms the dual-write: each later write in the new cell is mirrored.
func (s *Serve[X]) Prepare(x X, successor func([]rtree.Entry) (Partition, error),
	send func(x X, ops []BatchOp, results []BatchResult) []BatchResult) error {
	if s.shard.Load().m == nil {
		return errors.New("proto: split of an unsharded server")
	}
	if s.killed.Load() {
		return replica.ErrUnavailable
	}
	x.Lock()
	defer x.Unlock()
	if s.split.Load() != nil {
		return errors.New("proto: split already in progress")
	}
	entries, err := s.snapshot()
	var next Partition
	if err == nil {
		next, err = successor(entries)
	}
	if err != nil {
		return err
	}
	newIdx := next.K() - 1
	var ops []BatchOp
	var results []BatchResult
	for i, e := range entries {
		if next.Owner(e.Rect) == newIdx {
			ops = append(ops, BatchOp{Type: wire.MsgInsert, Rect: e.Rect, Ref: e.Ref})
		}
		if len(ops) == 128 || (i == len(entries)-1 && len(ops) > 0) {
			results = send(x, ops, results)
			for _, r := range results {
				if r.Err != nil {
					return r.Err
				}
			}
			s.moved.Add(uint64(len(ops)))
			ops = ops[:0]
		}
	}
	s.split.Store(&split[X]{next: next, newIdx: newIdx, send: send})
	s.phase.Store(ReshardDualWrite)
	return nil
}

// Commit serves the prepared successor map, so routers adopt it; the
// peeled cell's entries stay here, dual-written, until Drain.
func (s *Serve[X]) Commit() error {
	sp := s.split.Load()
	if sp == nil {
		return errors.New("proto: no split prepared")
	}
	s.SetShard(sp.next, s.shard.Load().idx)
	s.phase.Store(ReshardCommitted)
	return nil
}

// Drain ends the split on x once routers have had their chance to adopt
// the committed map: under the exclusive latch it deletes the new cell's
// entries as ordinary writes, propagated to the backups but not mirrored,
// and disarms the split, which raises the fence.
func (s *Serve[X]) Drain(x X) error {
	x.Lock()
	defer x.Unlock()
	sp := s.split.Load()
	if sp == nil {
		return nil
	}
	s.split.Store(&split[X]{next: sp.next, newIdx: sp.newIdx})
	entries, err := s.snapshot()
	for _, e := range entries {
		if sp.next.Owner(e.Rect) == sp.newIdx && err == nil {
			_, status := s.applyLocked(x, wire.Request{Type: wire.MsgDelete, Rect: e.Rect, Ref: e.Ref})
			err = OpError(wire.MsgDelete, status)
		}
	}
	s.split.Store(nil)
	s.phase.Store(ReshardIdle)
	return err
}

// propagate carries one applied insert or delete to the backups and, while
// a split is armed, to the new server when the new cell owns the rectangle.
// A delete the new server never saw is not an error.
func (s *Serve[X]) propagate(x X, op wire.MsgType, r geo.Rect, ref uint64) uint8 {
	if status := x.Propagate(op, r, ref); status != wire.StatusOK {
		return status
	}
	sp := s.split.Load()
	if sp == nil || sp.send == nil || sp.next.Owner(r) != sp.newIdx {
		return wire.StatusOK
	}
	res := sp.send(x, []BatchOp{{Type: op, Rect: r, Ref: ref}}, nil)
	if err := res[0].Err; err != nil && !errors.Is(err, ErrNotFound) {
		return wire.StatusError
	}
	return wire.StatusOK
}
