// Geo-serving operation types: MOVE (relocate one entry under a single
// exclusive latch) and kNN (k nearest neighbors, best-first), the two
// first-class operations of the scenario subsystem (DESIGN.md §5.13).
//
// A MOVE travels as a widened Request — the legacy 49-byte layout plus the
// 32-byte destination rectangle (and the optional trailing deadline word):
//
//	[type u8][id u64][from 32B][ref u64][to 32B][deadline u32?]
//
// A kNN rides the unmodified Request layout: Rect degenerates to the query
// point and Ref carries k, so no new encoder is needed and kNN requests
// batch, queue, and deadline-stamp exactly like searches. MsgKNNFetch is to
// MsgKNN what MsgSearchFetch is to MsgSearch: the same query, answered
// through the mailbox fetch path when the result set is large enough that
// the server's send engine would otherwise become the bottleneck.
package wire

import "github.com/catfish-db/catfish/internal/geo"

// Geo-serving message types, appended after the replication types so every
// earlier MsgType keeps its wire value.
const (
	// MsgMove relocates the entry (Rect, Ref) to (Rect2, Ref): a delete of
	// the old position and an insert of the new one under one exclusive
	// tree latch, so no concurrent search observes the object absent. A
	// MOVE whose source entry does not exist degrades to a plain insert —
	// exactly the state the equivalent delete-then-insert stream reaches.
	MsgMove MsgType = iota + MsgPromote + 1
	// MsgKNN asks for the Ref nearest entries to the point at Rect's
	// center, returned in ascending distance order.
	MsgKNN
	// MsgKNNFetch is a kNN answered via the fetch/mailbox path: the server
	// deposits the neighbor list in a mailbox slot and returns a
	// FetchDesc, falling back to an inline response when no slot is free.
	MsgKNNFetch
)

// MoveRequestSize is the encoded size of a MsgMove request without a
// deadline word; the deadline, when present, follows the destination
// rectangle.
const MoveRequestSize = RequestSize + 32

// KNNRequest builds the request encoding a k-nearest-neighbor query for
// the point (x, y).
func KNNRequest(id uint64, k int, x, y float64) Request {
	return Request{Type: MsgKNN, ID: id, Rect: geo.PointRect(x, y), Ref: uint64(k)}
}
