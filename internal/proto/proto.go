// Package proto is the Catfish protocol written once for every transport:
// the client side and (serve.go) the server side, Serve, which both servers
// run over the narrow Exec interface. Ops (ops.go, fetch.go, batch.go) is the
// paper's client module — Algorithm 1's choice per read, by fast messaging,
// offloading or remote result fetching, writes by messaging, batches —
// over the narrow Transport interface that the simulated-fabric client
// (internal/client) and the real-socket client (internal/rpcnet)
// implement. This file holds the vocabulary they and the shard router
// (internal/shard) share: how a search executed (Method), the batched
// operation surface (BatchOp, BatchResult), the mapping from a response
// status to the typed error callers match with errors.Is, and the
// neighbor↔item conversion a remote kNN round-trips through — so a value
// produced on one transport means the same thing on the other.
package proto

import (
	"errors"
	"fmt"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// Method identifies how a search was executed.
type Method int

// Search methods.
const (
	// MethodFast is fast messaging: the server executes the search (an
	// RDMA-Write ring on the simulated fabric, a framed request on real
	// sockets).
	MethodFast Method = iota + 1
	// MethodOffload is client-side traversal over one-sided reads.
	MethodOffload
	// MethodTCP is the simulated kernel-TCP baseline path.
	MethodTCP
	// MethodFetch is RFP-style remote result fetching: the server executes
	// the search into a mailbox slot and the client pulls the slot with
	// one-sided reads (DESIGN.md §5.10).
	MethodFetch
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodFast:
		return "fast"
	case MethodOffload:
		return "offload"
	case MethodTCP:
		return "tcp"
	case MethodFetch:
		return "fetch"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// BatchOp is one operation submitted through ExecBatch.
type BatchOp struct {
	Type wire.MsgType // MsgSearch, MsgInsert, MsgDelete, MsgMove or MsgKNN
	Rect geo.Rect     // query rect; move source; kNN query point (degenerate rect)
	Ref  uint64       // insert/delete/move payload; k for MsgKNN
	// Rect2 is the move destination (MsgMove only).
	Rect2 geo.Rect
}

// BatchResult is the outcome of one batched operation, in submission order.
type BatchResult struct {
	Method Method
	Items  []wire.Item
	Err    error
}

// Errors a response status maps to.
var (
	ErrServer   = errors.New("catfish: server reported an error")
	ErrNotFound = errors.New("catfish: entry not found")
	// ErrOverloaded surfaces a typed StatusOverloaded shed: the server's
	// admission controller refused the operation without executing it.
	// Distinct from transport errors and from the failover sentinels —
	// the server is alive, just saturated; retry (ideally elsewhere)
	// with backoff.
	ErrOverloaded = errors.New("catfish: server overloaded")
)

// StatusError maps a non-OK response status to the typed error clients
// surface: the admission shed and the replica sentinels first, so
// errors.Is checks work identically across transports, then the generic
// server-error wrap naming what was asked.
func StatusError(status uint8, what string) error {
	if status == wire.StatusOverloaded {
		return ErrOverloaded
	}
	if rerr := replica.StatusError(status); rerr != nil {
		return rerr
	}
	return fmt.Errorf("%w: %s status %d", ErrServer, what, status)
}

// OpError maps the response status of an operation of type t to the
// unbatched API's error: nil for OK, ErrNotFound for a delete that matched
// nothing, StatusError otherwise.
func OpError(t wire.MsgType, status uint8) error {
	switch {
	case status == wire.StatusOK:
		return nil
	case t == wire.MsgDelete && status == wire.StatusNotFound:
		return ErrNotFound
	}
	what := "search"
	switch t {
	case wire.MsgInsert:
		what = "insert"
	case wire.MsgDelete:
		what = "delete"
	case wire.MsgMove:
		what = "move"
	case wire.MsgKNN:
		what = "knn"
	case wire.MsgPromote:
		what = "promote"
	}
	return StatusError(status, what)
}

// NeighborsOfItems rebuilds a neighbor list from kNN response items. The
// server sends items in ascending distance order, and DistSq is recomputed
// here with the same geo.Rect.DistSqToPoint the tree's best-first search
// used — rectangles round-trip bit-exactly, so the distances (and therefore
// the whole result) match a local Nearest call exactly.
func NeighborsOfItems(items []wire.Item, x, y float64) []rtree.Neighbor {
	if len(items) == 0 {
		return nil
	}
	out := make([]rtree.Neighbor, len(items))
	for i, it := range items {
		out[i] = rtree.Neighbor{Rect: it.Rect, Ref: it.Ref, DistSq: it.Rect.DistSqToPoint(x, y)}
	}
	return out
}

// ItemsOfNeighbors flattens a neighbor list to response items, preserving
// the ascending distance order.
func ItemsOfNeighbors(nbrs []rtree.Neighbor) []wire.Item {
	if len(nbrs) == 0 {
		return nil
	}
	out := make([]wire.Item, len(nbrs))
	for i, n := range nbrs {
		out[i] = wire.Item{Rect: n.Rect, Ref: n.Ref}
	}
	return out
}
