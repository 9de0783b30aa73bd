// Batched fast messaging over real TCP: the same batch containers the
// simulated transports use, so a multiplexed connection pays one frame
// write, one syscall, and one latch acquisition per batch instead of per
// operation.
package rpcnet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/wire"
)

// handleBatch executes a batch container under one latch acquisition: a
// batch carrying any write takes the exclusive latch, a read-only batch
// shares the read latch. Every query emits into one pooled sink and every
// outcome is recorded there; once the latch drops the sink is framed into
// batch containers of response segments and enqueued whole. The caller's
// per-frame busy-time accounting naturally charges the whole batch once.
func (s *Server) handleBatch(sc *srvConn, payload []byte) error {
	it, err := wire.DecodeBatch(payload)
	if err != nil {
		return sc.sendStatus(0, wire.StatusError)
	}
	reqs := make([]wire.Request, 0, it.Len())
	hasWrite := false
	for {
		msg, ok := it.Next()
		if !ok {
			break
		}
		req, err := wire.DecodeRequest(msg)
		if err != nil {
			req = wire.Request{} // answered with an error response below
		} else if req.Type != wire.MsgSearch && req.Type != wire.MsgKNN && !isFetch(req.Type) {
			hasWrite = true
		}
		reqs = append(reqs, req)
	}
	if it.Err() != nil {
		return sc.sendStatus(0, wire.StatusError)
	}
	if len(reqs) == 0 {
		return nil
	}
	k := getSink()
	defer putSink(k)
	// An oversized batch, or any batch at a killed server, still answers
	// every operation ID so the client's collector terminates.
	refuse := uint8(wire.StatusOK)
	if s.cfg.MaxBatch > 0 && len(reqs) > s.cfg.MaxBatch {
		refuse = wire.StatusError
	} else if s.killed.Load() {
		refuse = wire.StatusUnavailable
	}
	if refuse != wire.StatusOK {
		for _, req := range reqs {
			k.ops = append(k.ops, sinkOp{id: req.ID, status: refuse})
		}
		return s.respondBatch(sc, k)
	}
	s.batches.Add(1)
	s.batchedOps.Add(uint64(len(reqs)))

	if hasWrite {
		s.latch.Lock()
	} else {
		s.latch.RLock()
	}
	for _, req := range reqs {
		op := sinkOp{id: req.ID, status: wire.StatusError, from: len(k.items)}
		switch req.Type {
		case wire.MsgSearch, wire.MsgSearchFetch, wire.MsgKNN, wire.MsgKNNFetch:
			if s.query(k, req) == nil {
				op.status = wire.StatusOK
				op.fetch = isFetch(req.Type)
			}
		case wire.MsgInsert, wire.MsgDelete, wire.MsgMove:
			op.status = s.applyLocked(req)
		}
		op.to = len(k.items)
		k.ops = append(k.ops, op)
	}
	if hasWrite {
		s.latch.Unlock()
	} else {
		s.latch.RUnlock()
	}
	return s.respondBatch(sc, k)
}

// respondBatch frames the sink's outcomes as batch containers of response
// segments — a new container whenever the next sub-message would pass a
// 16 KB frame budget — and enqueues them all at once. Each operation keeps
// its own CONT/END segmentation inside the containers; a fetch query whose
// items fit a mailbox slot answers with the descriptor instead.
func (s *Server) respondBatch(sc *srvConn, k *resultSink) error {
	const limit = 16 << 10
	maxItems := s.cfg.MaxSegmentItems
	if fit := (limit - wire.BatchOverhead(1) - wire.ResponseHeaderSize) / wire.ItemSize; fit < maxItems {
		maxItems = fit
	}
	if maxItems < 1 {
		maxItems = 1
	}
	var enc wire.BatchEncoder
	open := false
	// closeContainer patches the finished container's frame length.
	closeContainer := func() {
		c := enc.Bytes()
		binary.LittleEndian.PutUint32(enc.Buf[len(enc.Buf)-len(c)-4:], uint32(len(c)))
		k.out, open = enc.Buf, false
	}
	// sub opens an n-byte sub-message, in a new container when the one
	// under construction has no room for it.
	sub := func(n int) {
		if open && enc.Len()+n+wire.BatchOverhead(1) > limit {
			closeContainer()
		}
		if !open {
			enc.Reset(append(k.out, 0, 0, 0, 0))
			open = true
		}
		enc.Begin()
	}
	for _, op := range k.ops {
		items := k.items[op.from:op.to]
		if op.fetch {
			if desc, ok := s.mailboxDeliver(op.id, items); ok {
				sub(wire.FetchDescSize)
				enc.Buf = desc.Encode(enc.Buf)
				enc.End()
				continue
			}
		}
		for {
			seg, rest, final := nextSegment(items, maxItems)
			sub(wire.ResponseHeaderSize + len(seg))
			enc.Buf = wire.AppendResponseHeader(enc.Buf, op.id, final, op.status, len(seg)/wire.ItemSize)
			enc.Buf = append(enc.Buf, seg...)
			enc.End()
			if final {
				break
			}
			items = rest
		}
	}
	if !open {
		return nil
	}
	closeContainer()
	return sc.w.enqueueFramed(k.out)
}

// BatchOp is one operation submitted through ExecBatch.
type BatchOp = proto.BatchOp

// BatchResult is the outcome of one batched operation, in submission order.
type BatchResult = proto.BatchResult

// wireOp ties a messaging-group request ID back to its batch slot.
type wireOp struct {
	op    int // index into ops/results
	id    uint64
	fetch bool // search routed to remote result fetching
}

// ExecBatch executes ops as one client batch over the multiplexed TCP
// connection: writes and messaging-routed searches coalesce into a single
// batch container (one frame write, one server latch), while searches that
// Algorithm 1 routes to offloading traverse with chunk reads overlapped
// with the in-flight batch. Every search consults the switch individually,
// preserving the per-search back-off accounting, and a batch of one
// delegates to the unbatched path bit-for-bit.
func (c *Client) ExecBatch(ops []BatchOp, results []BatchResult) []BatchResult {
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
			results[0] = BatchResult{Method: MethodFast, Err: c.Insert(op.Rect, op.Ref)}
		case wire.MsgDelete:
			results[0] = BatchResult{Method: MethodFast, Err: c.Delete(op.Rect, op.Ref)}
		case wire.MsgMove:
			results[0] = BatchResult{Method: MethodFast, Err: c.Move(op.Rect, op.Rect2, op.Ref)}
		case wire.MsgKNN:
			x, y := op.Rect.Center()
			nbrs, m, err := c.Nearest(int(op.Ref), x, y)
			results[0] = BatchResult{Method: m, Items: proto.ItemsOfNeighbors(nbrs), Err: err}
		default:
			items, m, err := c.Search(op.Rect)
			results[0] = BatchResult{Method: m, Items: items, Err: err}
		}
		return results
	}

	var wireOps []wireOp
	var offload []int
	for i, op := range ops {
		switch op.Type {
		case wire.MsgInsert, wire.MsgDelete, wire.MsgMove:
			wireOps = append(wireOps, wireOp{op: i})
		case wire.MsgKNN:
			// kNN is pinned to server-side execution (no offload arm): it
			// rides the container over fast messaging, or — when the switch
			// picks fetch — retyped to MsgKNNFetch with its result pulled
			// from a mailbox slot after the collect.
			m := c.pinServerSide(c.cfg.Forced)
			if c.cfg.Adaptive {
				m = c.decideServerSide()
			}
			c.stats.KNNSearches.Inc()
			if m == MethodFetch && c.hello.FetchSlots > 0 {
				c.stats.FetchSearches.Inc()
				results[i].Method = MethodFetch
				wireOps = append(wireOps, wireOp{op: i, fetch: true})
			} else {
				c.stats.FastSearches.Inc()
				wireOps = append(wireOps, wireOp{op: i})
			}
		case wire.MsgSearch:
			m := c.cfg.Forced
			if c.cfg.Adaptive {
				m = c.decide()
			}
			switch {
			case m == MethodOffload:
				c.stats.OffloadSearches.Inc()
				results[i].Method = MethodOffload
				offload = append(offload, i)
			case m == MethodFetch && c.hello.FetchSlots > 0:
				// The request rides the same container, retyped; its result
				// comes back as a descriptor (or inline segments) and the
				// mailbox pulls run after the batch collect completes.
				c.stats.FetchSearches.Inc()
				results[i].Method = MethodFetch
				wireOps = append(wireOps, wireOp{op: i, fetch: true})
			default:
				c.stats.FastSearches.Inc()
				wireOps = append(wireOps, wireOp{op: i})
			}
		default:
			results[i].Err = fmt.Errorf("%w: unsupported batch op type %d", ErrServer, op.Type)
		}
	}

	// Register every operation on one shared waiter before the single
	// frame write, so no response can slip past, then collect concurrently
	// with the offloaded traversals (a blocked collector would stall the
	// connection's read loop and deadlock the chunk reads).
	var done chan struct{}
	var descs []pendingDesc
	var ids []uint64
	if len(wireOps) > 0 {
		w := getWaiter()
		defer putWaiter(w) // runs after unregisterAll below: no push can be in flight
		ids = make([]uint64, 0, len(wireOps))
		for j := range wireOps {
			wireOps[j].id = c.nextID()
			ids = append(ids, wireOps[j].id)
		}
		if err := c.mx.registerAll(ids, w); err != nil {
			for _, wo := range wireOps {
				results[wo.op].Err = err
			}
			wireOps = nil
		}
		if len(wireOps) > 0 {
			buf := wire.GetBuf()
			var enc wire.BatchEncoder
			enc.Reset((*buf)[:0])
			dl := deadlineUS(c.cfg.Deadline)
			for _, wo := range wireOps {
				op := ops[wo.op]
				typ := op.Type
				if wo.fetch {
					typ = wire.MsgSearchFetch
					if op.Type == wire.MsgKNN {
						typ = wire.MsgKNNFetch
					}
				} else {
					results[wo.op].Method = MethodFast
				}
				enc.Begin()
				enc.Buf = wire.Request{Type: typ, ID: wo.id, Rect: op.Rect, Ref: op.Ref,
					Rect2: op.Rect2, DeadlineUS: dl}.Encode(enc.Buf)
				enc.End()
			}
			payload := enc.Bytes()
			c.stats.BatchesSent.Inc()
			c.stats.BatchedOps.Add(uint64(len(wireOps)))
			err := c.mx.send(payload)
			*buf = enc.Buf
			wire.PutBuf(buf)
			if err != nil {
				for _, wo := range wireOps {
					results[wo.op].Err = err
				}
			} else {
				done = make(chan struct{})
				go c.collectBatch(w, ops, results, wireOps, &descs, done)
			}
		}
	}

	for _, i := range offload {
		items, err := c.searchOffload(ops[i].Rect)
		results[i].Items = items
		results[i].Err = err
	}

	if done != nil {
		<-done
	}
	if len(ids) > 0 {
		c.mx.unregisterAll(ids)
	}

	// Pull phase: resolve every fetch descriptor against the mailbox, in
	// batch order for determinism. A pull past its retry budget re-executes
	// the search over fast messaging, exactly like the unbatched fetch path.
	sort.Slice(descs, func(i, j int) bool { return descs[i].op < descs[j].op })
	for _, pd := range descs {
		i := pd.op
		if pd.desc.Status != wire.StatusOK {
			results[i].Err = proto.OpError(ops[i].Type, pd.desc.Status)
			continue
		}
		items, err := c.pullMailbox(pd.desc)
		if err != nil {
			c.stats.FetchFallbacks.Inc()
			if ops[i].Type == wire.MsgKNN {
				x, y := ops[i].Rect.Center()
				items, err = c.knnFast(int(ops[i].Ref), x, y)
			} else {
				items, err = c.searchFast(ops[i].Rect)
			}
		}
		results[i].Items = append(results[i].Items, items...)
		results[i].Err = err
	}
	return results
}

// pendingDesc is a fetch descriptor collected during the batch exchange,
// pulled after the collect loop completes so the batch itself never blocks
// on mailbox reads.
type pendingDesc struct {
	op   int
	desc wire.FetchDesc
}

// collectBatch folds delivered response segments into results until every
// messaging-group operation has received its END segment or, for a
// fetch-routed search, its mailbox descriptor (recorded into descs for the
// pull phase that runs after this collector finishes).
func (c *Client) collectBatch(w *waiter, ops []BatchOp, results []BatchResult,
	wireOps []wireOp, descs *[]pendingDesc, done chan struct{}) {
	defer close(done)
	idx := make(map[uint64]int, len(wireOps))
	for _, wo := range wireOps {
		idx[wo.id] = wo.op
	}
	remaining := len(wireOps)
	for remaining > 0 {
		d, ok := w.recv()
		if !ok {
			for _, i := range idx {
				if results[i].Err == nil {
					results[i].Err = ErrClosed
				}
			}
			for _, pd := range *descs {
				if results[pd.op].Err == nil {
					results[pd.op].Err = ErrClosed
				}
			}
			return
		}
		typ, id, err := wire.PeekID(d.msg)
		i, ok := idx[id]
		if err != nil || !ok {
			d.release()
			continue
		}
		if typ == wire.MsgFetchDesc {
			desc, derr := wire.DecodeFetchDesc(d.msg)
			d.release()
			if derr != nil {
				continue
			}
			*descs = append(*descs, pendingDesc{op: i, desc: desc})
			delete(idx, id)
			remaining--
			continue
		}
		// Decoded once, straight onto the operation's result.
		resp, err := wire.DecodeResponseAppend(d.msg, results[i].Items)
		d.release()
		if err != nil {
			continue
		}
		results[i].Items = resp.Items
		if resp.Final {
			results[i].Err = proto.OpError(ops[i].Type, resp.Status)
			if results[i].Method == MethodFetch {
				c.stats.FetchInline.Inc()
			}
			delete(idx, resp.ID)
			remaining--
		}
	}
}
