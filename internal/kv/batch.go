package kv

import (
	"errors"
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// kvBatchResult buffers one operation's outcome until the batch latch is
// released and the segmented batch response can be written.
type kvBatchResult struct {
	id     uint64
	status uint8
	pairs  []wire.KVPair
}

// handleBatch executes a batch container of KV requests under one latch
// acquisition and one CPU charge, mirroring the R-tree server: a batch
// carrying any write (put/delete) takes the exclusive latch, a read-only
// batch shares the read latch, and per-operation fixed costs beyond the
// first are amortized via CostModel.SearchDemandBatched.
func (s *Server) handleBatch(p *sim.Proc, c *conn, payload []byte) {
	it, err := wire.DecodeBatch(payload)
	if err != nil {
		s.respond(p, c, wire.KVResponse{Status: wire.StatusError, Final: true}, nil)
		return
	}
	reqs := c.batchReqs[:0]
	hasWrite := false
	for {
		msg, ok := it.Next()
		if !ok {
			break
		}
		req, err := wire.DecodeKVRequest(msg)
		if err != nil {
			req = wire.KVRequest{} // answered with an error response below
		} else if req.Type == wire.MsgKVPut || req.Type == wire.MsgKVDelete {
			hasWrite = true
		}
		reqs = append(reqs, req)
	}
	c.batchReqs = reqs
	if it.Err() != nil {
		s.respond(p, c, wire.KVResponse{Status: wire.StatusError, Final: true}, nil)
		return
	}
	if len(reqs) == 0 {
		return
	}
	s.stats.Batches++
	s.stats.BatchedOps += uint64(len(reqs))

	if hasWrite {
		s.latch.Lock(p)
		s.publishFrom(p)
	} else {
		s.latch.RLock(p)
	}
	h := s.tree.Height()
	var demand time.Duration
	res := c.batchRes[:0]
	for i, req := range reqs {
		out := kvBatchResult{id: req.ID, status: wire.StatusError}
		switch req.Type {
		case wire.MsgKVGet:
			s.stats.Gets++
			val, err := s.tree.Get(req.Key)
			demand += s.cfg.Cost.SearchDemandBatched(i, h, 1)
			switch {
			case errors.Is(err, btree.ErrNotFound):
				out.status = wire.StatusNotFound
			case err == nil:
				out.status = wire.StatusOK
				out.pairs = []wire.KVPair{{Key: req.Key, Val: val}}
			}

		case wire.MsgKVRange:
			s.stats.Ranges++
			var pairs []wire.KVPair
			err := s.tree.Range(req.Key, req.End, func(k, v uint64) bool {
				pairs = append(pairs, wire.KVPair{Key: k, Val: v})
				return true
			})
			s.stats.Pairs += uint64(len(pairs))
			demand += s.cfg.Cost.SearchDemandBatched(i, h+len(pairs)/s.tree.MaxEntries(), len(pairs))
			if err == nil {
				out.status = wire.StatusOK
				out.pairs = pairs
			}

		case wire.MsgKVPut:
			s.stats.Puts++
			err := s.tree.Update(req.Key, req.Val)
			if errors.Is(err, btree.ErrNotFound) {
				err = s.tree.Insert(req.Key, req.Val)
			}
			demand += s.cfg.Cost.SearchDemandBatched(i, h*2, 0)
			if err == nil {
				out.status = wire.StatusOK
			}

		case wire.MsgKVDelete:
			s.stats.Deletes++
			err := s.tree.Delete(req.Key)
			demand += s.cfg.Cost.SearchDemandBatched(i, h*2, 0)
			switch {
			case errors.Is(err, btree.ErrNotFound):
				out.status = wire.StatusNotFound
			case err == nil:
				out.status = wire.StatusOK
			}
		}
		res = append(res, out)
	}
	c.batchRes = res
	if hasWrite {
		s.publishP = nil
		s.latch.Unlock()
	} else {
		s.latch.RUnlock()
	}
	s.cfg.Host.CPU().Run(p, demand)
	s.respondBatch(p, c, res)
}

// respondBatch writes buffered batch results back as batch containers of
// KV response segments, flushing below the ring frame limit.
func (s *Server) respondBatch(p *sim.Proc, c *conn, res []kvBatchResult) {
	limit := 16 << 10
	if mp := c.respWriter.MaxPayload(); mp < limit {
		limit = mp
	}
	maxPairs := maxSegmentPairs
	hdr := wire.KVResponse{}.EncodedSize()
	if fit := (limit - wire.BatchOverhead(1) - hdr) / 16; fit < maxPairs {
		maxPairs = fit
	}
	if maxPairs < 1 {
		maxPairs = 1
	}
	enc := &c.benc
	enc.Reset(c.encBuf[:0])
	flush := func() {
		if enc.Count() == 0 {
			return
		}
		if err := c.respWriter.Send(p, enc.Bytes(), 0, true); err != nil {
			panic(fmt.Sprintf("kv: batch response send failed: %v", err))
		}
		c.encBuf = enc.Buf[:0]
		enc.Reset(c.encBuf)
	}
	for _, r := range res {
		pairs := r.pairs
		for {
			seg := wire.KVResponse{ID: r.id, Status: r.status}
			if len(pairs) > maxPairs {
				seg.Pairs = pairs[:maxPairs]
				pairs = pairs[maxPairs:]
			} else {
				seg.Pairs = pairs
				pairs = nil
				seg.Final = true
			}
			if enc.Count() > 0 && enc.Len()+seg.EncodedSize()+wire.BatchOverhead(1) > limit {
				flush()
			}
			enc.Begin()
			enc.Buf = seg.Encode(enc.Buf)
			enc.End()
			if seg.Final {
				break
			}
		}
	}
	flush()
	c.encBuf = enc.Buf[:0]
}

// GetResult is the outcome of one batched Get, in submission order.
type GetResult struct {
	Method Method
	Val    uint64
	Err    error
}

// GetBatch executes point gets as one client batch: each key consults the
// adaptive switch individually; messaging-routed gets coalesce into a
// single batch container (one ring write, one server latch and charge)
// while offload-routed gets traverse the B+-tree one-sided, overlapped
// with the in-flight batch. A batch of one delegates to Get and is
// bit-for-bit identical to the unbatched client.
func (c *Client) GetBatch(p *sim.Proc, keys []uint64, results []GetResult) []GetResult {
	results = results[:0]
	for range keys {
		results = append(results, GetResult{})
	}
	if len(keys) == 0 {
		return results
	}
	if len(keys) == 1 {
		val, m, err := c.Get(p, keys[0])
		results[0] = GetResult{Method: m, Val: val, Err: err}
		return results
	}

	type fastOp struct {
		op int
		id uint64
	}
	var fast []fastOp
	var offload []int
	for i := range keys {
		if c.decide(p) == MethodOffload {
			c.stats.OffloadReads++
			results[i].Method = MethodOffload
			offload = append(offload, i)
		} else {
			c.stats.FastReads++
			results[i].Method = MethodFast
			fast = append(fast, fastOp{op: i})
		}
	}

	if len(fast) > 0 {
		enc := &c.benc
		enc.Reset(c.encBuf[:0])
		for j := range fast {
			fast[j].id = c.nextID()
			enc.Begin()
			enc.Buf = wire.KVRequest{Type: wire.MsgKVGet, ID: fast[j].id, Key: keys[fast[j].op]}.Encode(enc.Buf)
			enc.End()
		}
		payload := enc.Bytes()
		c.stats.BatchesSent++
		c.stats.BatchedOps += uint64(len(fast))
		if err := c.ep.ReqWriter.Send(p, payload, fast[0].id, true); err != nil {
			for _, f := range fast {
				results[f.op].Err = err
			}
			fast = nil
		}
		c.encBuf = enc.Buf[:0]
	}

	if len(offload) > 0 {
		for _, i := range offload {
			results[i].Val, results[i].Err = c.get(p, keys[i])
		}
	}

	if len(fast) == 0 {
		return results
	}
	idx := make(map[uint64]int, len(fast))
	for _, f := range fast {
		idx[f.id] = f.op
	}
	remaining := len(fast)
	npairs := make([]int, len(results))
	handle := func(msg []byte) error {
		if len(msg) == 0 || wire.MsgType(msg[0]) != wire.MsgKVResponse {
			return nil // stray non-response message
		}
		resp, err := wire.DecodeKVResponse(msg)
		if err != nil {
			return err
		}
		i, ok := idx[resp.ID]
		if !ok {
			return nil // stale segment from an aborted exchange
		}
		if len(resp.Pairs) > 0 {
			results[i].Val = resp.Pairs[len(resp.Pairs)-1].Val
			npairs[i] += len(resp.Pairs)
		}
		if resp.Final {
			switch {
			case resp.Status == wire.StatusNotFound:
				results[i].Err = ErrNotFound
			case resp.Status != wire.StatusOK:
				results[i].Err = fmt.Errorf("%w: get status %d", ErrServer, resp.Status)
			case npairs[i] != 1:
				results[i].Err = fmt.Errorf("%w: malformed get response", ErrServer)
			}
			delete(idx, resp.ID)
			remaining--
		}
		return nil
	}
	fold := func(payload []byte) error {
		if len(payload) > 0 && wire.MsgType(payload[0]) == wire.MsgBatch {
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
		return handle(payload)
	}
	failAll := func(err error) {
		for _, i := range idx {
			if results[i].Err == nil {
				results[i].Err = err
			}
		}
	}
	for remaining > 0 {
		c.ep.RespReader.CQ().Pop(p)
		for {
			payload, err, ok := c.ep.RespReader.TryRecv()
			if err != nil {
				failAll(err)
				return results
			}
			if !ok {
				break
			}
			if err := fold(payload); err != nil {
				failAll(err)
				return results
			}
		}
		if err := c.ep.RespReader.ReportHead(p); err != nil {
			failAll(err)
			return results
		}
	}
	return results
}
