// The server's result pipeline (DESIGN.md §5.14): a search or kNN emits its
// matches straight into a pooled sink as packed wire items — memory writes
// only, which is all that may happen under the read latch. Once the latch
// has dropped, the same bytes are either written to a mailbox slot or
// framed into CONT/END response segments, and every frame of the reply
// reaches the connection writer in one enqueue.
package rpcnet

import (
	"encoding/binary"
	"sync"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// resultSink is the scratch one request — or one whole batch — executes
// into and replies from.
type resultSink struct {
	items []byte   // packed items of every query run so far
	out   []byte   // length-prefixed frames of the reply
	ops   []sinkOp // per-operation outcomes (batches only)
}

// sinkOp is one batched operation's outcome: its status and, for a query,
// which span of the sink's items is its result.
type sinkOp struct {
	id       uint64
	status   uint8
	fetch    bool // a *Fetch query: offer the result to the mailbox first
	from, to int  // items[from:to]
}

// maxPooledSink bounds the buffers a pooled sink may keep; one that served
// a larger reply drops them rather than pinning them.
const maxPooledSink = 1 << 20

var sinkPool = sync.Pool{New: func() any { return new(resultSink) }}

func getSink() *resultSink { return sinkPool.Get().(*resultSink) }

func putSink(k *resultSink) {
	if cap(k.items) > maxPooledSink {
		k.items = nil
	}
	if cap(k.out) > maxPooledSink {
		k.out = nil
	}
	k.items, k.out, k.ops = k.items[:0], k.out[:0], k.ops[:0]
	sinkPool.Put(k)
}

func (k *resultSink) emit(r geo.Rect, ref uint64) bool {
	k.items = wire.AppendItem(k.items, r, ref)
	return true
}

func (k *resultSink) emitNeighbor(n rtree.Neighbor) {
	k.items = wire.AppendItem(k.items, n.Rect, n.Ref)
}

// isFetch reports whether a query asked for mailbox delivery.
func isFetch(t wire.MsgType) bool { return t == wire.MsgSearchFetch || t == wire.MsgKNNFetch }

// query runs one search or kNN (plain or fetch) with the latch held,
// appending the matches to k.items; a failed query leaves none behind. For
// a kNN the query point is the degenerate rect's center and k rides Ref;
// neighbors are emitted in ascending distance, the order every later stage
// preserves.
func (s *Server) query(k *resultSink, req wire.Request) error {
	from := len(k.items)
	var err error
	switch req.Type {
	case wire.MsgSearch, wire.MsgSearchFetch:
		if req.Type == wire.MsgSearch {
			s.searches.Add(1)
		} else {
			s.fetchSearches.Add(1)
		}
		_, err = s.tree.SearchShared(req.Rect, k.emit)
	default:
		s.knns.Add(1)
		x, y := req.Rect.Center()
		_, err = s.tree.NearestShared(int(req.Ref), x, y, k.emitNeighbor)
	}
	if err != nil {
		k.items = k.items[:from]
	}
	return err
}

// nextSegment splits the next response segment off packed items: at most
// max of them, and the last one — the only one that may be empty — final.
func nextSegment(items []byte, max int) (seg, rest []byte, final bool) {
	if len(items) > max*wire.ItemSize {
		return items[:max*wire.ItemSize], items[max*wire.ItemSize:], false
	}
	return items, nil, true
}

// appendSegments appends one operation's reply as length-prefixed response
// frames: packed items cut into CONT segments of at most max items and an
// END segment, each byte-identical to wire.Response.Encode of those items.
func appendSegments(out []byte, id uint64, status uint8, items []byte, max int) []byte {
	for {
		seg, rest, final := nextSegment(items, max)
		out = binary.LittleEndian.AppendUint32(out, uint32(wire.ResponseHeaderSize+len(seg)))
		out = wire.AppendResponseHeader(out, id, final, status, len(seg)/wire.ItemSize)
		out = append(out, seg...)
		if final {
			return out
		}
		items = rest
	}
}

// sendStatus answers id with a lone END segment carrying only a status — an
// insert/delete/MOVE ack or an error — framed in a stack buffer.
func (sc *srvConn) sendStatus(id uint64, status uint8) error {
	var b [4 + wire.ResponseHeaderSize]byte
	return sc.w.enqueueFramed(appendSegments(b[:0], id, status, nil, 0))
}

// mailboxDeliver resolves a *Fetch query's delivery once the latch has
// dropped (a grant is not a memory write): it writes the packed items — they
// already are the slot payload format — into a granted mailbox slot and
// returns the descriptor for them. It declines, sending the caller down the
// inline path (counted), when fetch is disabled, the result is small enough
// that inline delivery is cheaper, the payload exceeds a slot, or every
// slot is taken.
func (s *Server) mailboxDeliver(id uint64, items []byte) (wire.FetchDesc, bool) {
	count := len(items) / wire.ItemSize
	if s.mailbox != nil && count > s.cfg.FetchInlineMax &&
		len(items)+region.MailboxHeaderSize <= s.mailbox.Capacity() {
		if slot, ok := s.mailbox.Grant(); ok {
			ref, err := s.mailbox.WriteResult(slot, items)
			if err == nil {
				s.fetchBytes.Add(uint64(ref.Bytes))
				return wire.FetchDesc{
					ID:     id,
					Status: wire.StatusOK,
					Slot:   uint32(ref.Slot),
					Bytes:  uint32(ref.Bytes),
					Count:  uint32(count),
					Seq:    ref.Seq,
				}, true
			}
			s.mailbox.Cancel(slot)
		}
	}
	s.fetchInline.Add(1)
	return wire.FetchDesc{}, false
}
