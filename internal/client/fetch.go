package client

import (
	"errors"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/wire"
)

// ReadMailbox posts one doorbell-batched span of one-sided RDMA Reads on
// the dedicated fetch QP and validates each chunk through the region's
// seqlock surface. The reads target physically-consecutive chunks, so on
// merging fabrics the whole pull usually collapses into a single READ.
func (h port) ReadMailbox(chunk int, payloads [][]byte) (torn bool, err error) {
	c, mem, qp := h.c, h.c.ep.MailboxMem, h.c.ep.FetchQP
	cs := mem.Region().ChunkSize()
	firstTag := c.tagSeq + 1
	h.batch = h.batch[:0]
	for i := range payloads {
		c.tagSeq++
		h.batch = append(h.batch, fabric.ReadReq{
			Src: mem, Off: (chunk + i) * cs, Size: cs, Tag: c.tagSeq,
		})
	}
	posted, wqes, err := qp.ReadBatch(h.p, h.batch)
	c.Counters.FetchPulls.Add(uint64(posted))
	c.Counters.ReadWQEs.Add(uint64(wqes))
	var readErr error
	for i := 0; i < posted; i++ {
		comp := qp.CQ().Pop(h.p)
		idx := int(comp.Tag - firstTag)
		if idx < 0 || idx >= len(payloads) {
			i-- // completion from an abandoned pull; not part of this wave
			continue
		}
		if comp.Err != nil {
			readErr = comp.Err
			continue
		}
		payload, _, derr := region.DecodeChunk(comp.Data, nil)
		switch {
		case derr == nil:
			payloads[idx] = payload
		case errors.Is(derr, region.ErrTornRead):
			torn = true
		default:
			readErr = derr
		}
	}
	if err == nil {
		err = readErr
	}
	return torn, err
}

// AckFetch returns the slot to the server, fire-and-forget: the ack carries
// the slot's sequence stamp, so a delayed ack for an already-reused slot is
// ignored server-side and losing one merely delays reuse until the
// allocator cycles back (bounded by the slot count). It then charges the
// client CPU for unpacking the pulled items.
func (h port) AckFetch(desc wire.FetchDesc, items int) {
	c := h.c
	c.encBuf = wire.FetchAck{Slot: desc.Slot, Seq: desc.Seq}.Encode(c.encBuf[:0])
	_ = c.ep.ReqWriter.Send(h.p, c.encBuf, 0, true)
	if cpu := c.cfg.Host.CPU(); cpu != nil {
		cpu.Run(h.p, c.cfg.Cost.ClientFetchDemand(items))
	}
}
