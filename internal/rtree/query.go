package rtree

import (
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

// Query runs one search or kNN request (plain or fetch) for the server core
// (proto.Store), appending the packed items it matches to items. SearchShared
// and NearestShared touch no tree scratch state, so queries under a shared
// latch run in parallel. For a kNN the query point is the degenerate rect's
// center and k rides Ref; neighbors are emitted in ascending distance, the
// order every later stage — slot packing included — preserves. The emit
// closures stay in this frame, so a warmed query allocates nothing.
func (t *Tree) Query(req wire.Request, items []byte) ([]byte, OpStats, error) {
	e := emitter{items}
	if req.Type == wire.MsgSearch || req.Type == wire.MsgSearchFetch {
		st, err := t.SearchShared(req.Rect, e.emit)
		return e.items, st, err
	}
	x, y := req.Rect.Center()
	st, err := t.NearestShared(int(req.Ref), x, y, e.emitNeighbor)
	return e.items, st, err
}

// Kind reports that an R-tree's chunks are read by the R-tree walk.
func (t *Tree) Kind() wire.IndexKind { return wire.IndexRTree }

// emitter packs a query's matches as wire items.
type emitter struct{ items []byte }

func (e *emitter) emit(r geo.Rect, ref uint64) bool {
	e.items = wire.AppendItem(e.items, r, ref)
	return true
}

func (e *emitter) emitNeighbor(n Neighbor) {
	e.items = wire.AppendItem(e.items, n.Rect, n.Ref)
}
