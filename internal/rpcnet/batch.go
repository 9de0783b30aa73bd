// Batched fast messaging over real TCP: the same batch containers the
// simulated transports use, so a multiplexed connection pays one frame
// write, one syscall, and one latch acquisition per batch instead of per
// operation.
package rpcnet

import (
	"encoding/binary"

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
