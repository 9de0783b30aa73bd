package client

import (
	"fmt"
	"sort"

	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// BatchOp is one operation submitted through ExecBatch. For MsgMove, Rect
// is the source rectangle and Rect2 the destination; for MsgKNN, Rect is
// the query point (a degenerate rectangle) and Ref carries k.
type BatchOp = proto.BatchOp

// BatchResult is the outcome of one batched operation, in submission order.
type BatchResult = proto.BatchResult

// ExecBatch executes up to wire.MaxBatch operations as one client batch,
// reusing the caller's results slice.
//
// Writes and messaging-routed searches are coalesced into a single batch
// container — one ring write (or TCP frame), one immediate-data event, one
// server latch acquisition and charge — while searches that Algorithm 1
// (or a forced method) routes to offloading run as client-side traversals
// overlapped with the in-flight batch. Writes never offload (§IV-A), and
// every search consults the adaptive switch individually, so the
// per-search back-off window accounting is exactly that of the unbatched
// client. A batch of one delegates to the unbatched path and is therefore
// bit-for-bit identical to the pre-batching client.
func (c *Client) ExecBatch(p *sim.Proc, ops []BatchOp, results []BatchResult) []BatchResult {
	results = results[:0]
	for range ops {
		results = append(results, BatchResult{})
	}
	if len(ops) == 0 {
		return results
	}
	if len(ops) == 1 {
		op := ops[0]
		switch op.Type {
		case wire.MsgInsert:
			results[0].Method = MethodFast
			results[0].Err = c.Insert(p, op.Rect, op.Ref)
		case wire.MsgDelete:
			results[0].Method = MethodFast
			results[0].Err = c.Delete(p, op.Rect, op.Ref)
		case wire.MsgMove:
			results[0].Method = MethodFast
			results[0].Err = c.Move(p, op.Rect, op.Rect2, op.Ref)
		case wire.MsgKNN:
			x, y := op.Rect.Center()
			nbrs, m, err := c.Nearest(p, int(op.Ref), x, y)
			results[0] = BatchResult{Method: m, Items: proto.ItemsOfNeighbors(nbrs), Err: err}
		default:
			items, m, err := c.Search(p, op.Rect)
			results[0] = BatchResult{Method: m, Items: items, Err: err}
		}
		return results
	}

	useTCP := c.ep.TCP != nil
	wireMethod := MethodFast
	if useTCP {
		wireMethod = MethodTCP
	}
	var wireOps []wireOp
	var offload []int
	for i, op := range ops {
		switch op.Type {
		case wire.MsgInsert:
			c.stats.Inserts.Inc()
			wireOps = append(wireOps, wireOp{op: i})
		case wire.MsgDelete:
			c.stats.Deletes.Inc()
			wireOps = append(wireOps, wireOp{op: i})
		case wire.MsgMove:
			c.stats.Moves.Inc()
			wireOps = append(wireOps, wireOp{op: i})
		case wire.MsgKNN:
			// kNN is pinned server-side (no offload arm; see Nearest), so the
			// only routing question is fetch vs the messaging container.
			c.stats.KNNSearches.Inc()
			m := c.pinServerSide(c.cfg.Forced)
			if c.cfg.Adaptive {
				m = c.decideServerSide(p)
			}
			if m == MethodFetch && !useTCP && c.ep.MailboxMem != nil && c.ep.FetchQP != nil {
				c.stats.FetchSearches.Inc()
				results[i].Method = MethodFetch
				wireOps = append(wireOps, wireOp{op: i, fetch: true})
			} else {
				if wireMethod == MethodTCP {
					c.stats.TCPSearches.Inc()
				} else {
					c.stats.FastSearches.Inc()
				}
				wireOps = append(wireOps, wireOp{op: i})
			}
		case wire.MsgSearch:
			m := c.cfg.Forced
			if c.cfg.Adaptive {
				m = c.decide(p)
			}
			switch {
			case m == MethodOffload:
				c.stats.OffloadSearches.Inc()
				results[i].Method = MethodOffload
				offload = append(offload, i)
			case m == MethodFetch && !useTCP && c.ep.MailboxMem != nil && c.ep.FetchQP != nil:
				// The request rides the same container, retyped; its result
				// comes back as a descriptor (or inline segments) and the
				// mailbox pulls run after the batch collect completes.
				c.stats.FetchSearches.Inc()
				results[i].Method = MethodFetch
				wireOps = append(wireOps, wireOp{op: i, fetch: true})
			default:
				if wireMethod == MethodTCP {
					c.stats.TCPSearches.Inc()
				} else {
					c.stats.FastSearches.Inc()
				}
				wireOps = append(wireOps, wireOp{op: i})
			}
		default:
			results[i].Err = fmt.Errorf("%w: unsupported batch op type %d", ErrServer, op.Type)
		}
	}

	// Send the messaging group as one container, then run the offloaded
	// traversals while the batch is in flight, then collect.
	if len(wireOps) > 0 {
		enc := &c.benc
		enc.Reset(c.encBuf[:0])
		for j := range wireOps {
			wireOps[j].id = c.nextID()
			op := ops[wireOps[j].op]
			typ := op.Type
			if wireOps[j].fetch {
				if typ == wire.MsgKNN {
					typ = wire.MsgKNNFetch
				} else {
					typ = wire.MsgSearchFetch
				}
			} else {
				results[wireOps[j].op].Method = wireMethod
			}
			enc.Begin()
			enc.Buf = wire.Request{Type: typ, ID: wireOps[j].id, Rect: op.Rect, Ref: op.Ref,
				Rect2: op.Rect2}.Encode(enc.Buf)
			enc.End()
		}
		payload := enc.Bytes()
		c.stats.BatchesSent.Inc()
		c.stats.BatchedOps.Add(uint64(len(wireOps)))
		if useTCP {
			c.ep.TCP.Send(p, payload)
		} else if err := c.ep.ReqWriter.Send(p, payload, wireOps[0].id, true); err != nil {
			for _, w := range wireOps {
				results[w.op].Err = err
			}
			wireOps = nil
		}
		c.encBuf = enc.Buf[:0]
	}

	for _, i := range offload {
		items, err := c.searchOffload(p, ops[i].Rect)
		results[i].Items = items
		results[i].Err = err
	}

	if len(wireOps) > 0 {
		c.collectBatch(p, ops, results, wireOps, useTCP)
	}
	return results
}

// wireOp ties a messaging-group request ID back to its batch slot.
type wireOp struct {
	op    int // index into ops/results
	id    uint64
	fetch bool // search routed to remote result fetching
}

// collectBatch folds batch response frames into results until every
// messaging-group operation has received its END segment.
func (c *Client) collectBatch(p *sim.Proc, ops []BatchOp, results []BatchResult,
	wireOps []wireOp, useTCP bool) {
	idx := make(map[uint64]int, len(wireOps))
	for _, w := range wireOps {
		idx[w.id] = w.op
	}
	remaining := len(wireOps)
	// Descriptors of fetch-routed searches, pulled after the collect loop so
	// the batch exchange itself never blocks on mailbox reads.
	type pendingDesc struct {
		op   int
		desc wire.FetchDesc
	}
	var descs []pendingDesc

	// handle folds one response segment; fold unwraps one transport frame.
	handle := func(msg []byte) error {
		t, err := wire.PeekType(msg)
		if err != nil {
			return err
		}
		if t == wire.MsgFetchDesc {
			d, derr := wire.DecodeFetchDesc(msg)
			if derr != nil {
				return derr
			}
			i, ok := idx[d.ID]
			if !ok {
				return nil // descriptor from an abandoned exchange
			}
			descs = append(descs, pendingDesc{op: i, desc: d})
			delete(idx, d.ID)
			remaining--
			return nil
		}
		if t != wire.MsgResponse {
			return nil // stray non-response message
		}
		if err := wire.DecodeResponseInto(msg, &c.respBuf); err != nil {
			return err
		}
		i, ok := idx[c.respBuf.ID]
		if !ok {
			return nil // stale segment from an aborted exchange
		}
		results[i].Items = append(results[i].Items, c.respBuf.Items...)
		if c.respBuf.Final {
			results[i].Err = proto.OpError(ops[i].Type, c.respBuf.Status)
			if results[i].Method == MethodFetch {
				c.stats.FetchInline.Inc()
			}
			delete(idx, c.respBuf.ID)
			remaining--
		}
		return nil
	}
	fold := func(payload []byte) error {
		typ, err := wire.PeekType(payload)
		if err != nil {
			return err
		}
		if typ != wire.MsgBatch {
			return handle(payload)
		}
		it, err := wire.DecodeBatch(payload)
		if err != nil {
			return err
		}
		for {
			msg, ok := it.Next()
			if !ok {
				break
			}
			if err := handle(msg); err != nil {
				return err
			}
		}
		return it.Err()
	}
	failAll := func(err error) {
		for _, i := range idx {
			if results[i].Err == nil {
				results[i].Err = err
			}
		}
		for _, pd := range descs {
			if results[pd.op].Err == nil {
				results[pd.op].Err = err
			}
		}
	}

	for remaining > 0 {
		if useTCP {
			if err := fold(c.ep.TCP.Recv(p)); err != nil {
				failAll(err)
				return
			}
			continue
		}
		c.ep.RespReader.CQ().Pop(p)
		for {
			payload, err, ok := c.ep.RespReader.TryRecv()
			if err != nil {
				failAll(err)
				return
			}
			if !ok {
				break
			}
			if err := fold(payload); err != nil {
				failAll(err)
				return
			}
		}
		if err := c.ep.RespReader.ReportHead(p); err != nil {
			failAll(err)
			return
		}
	}

	// Pull phase: resolve every descriptor against the mailbox, in batch
	// order for determinism. A pull past its retry budget re-executes the
	// search over fast messaging, exactly like the unbatched fetch path.
	sort.Slice(descs, func(i, j int) bool { return descs[i].op < descs[j].op })
	for _, pd := range descs {
		i := pd.op
		if pd.desc.Status != wire.StatusOK {
			results[i].Err = proto.OpError(ops[i].Type, pd.desc.Status)
			continue
		}
		items, err := c.pullMailbox(p, pd.desc)
		if err != nil {
			c.stats.FetchFallbacks.Inc()
			if ops[i].Type == wire.MsgKNN {
				x, y := ops[i].Rect.Center()
				items, err = c.knnFast(p, int(ops[i].Ref), x, y)
			} else {
				items, err = c.searchFast(p, ops[i].Rect)
			}
		}
		results[i].Items = append(results[i].Items, items...)
		results[i].Err = err
	}
}
