package proto

import (
	"errors"
	"fmt"

	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/wire"
)

// exchange stamps req with the next id and the latency budget and sends it.
func (o Ops[T]) exchange(req wire.Request) (wire.Response, wire.FetchDesc, bool, error) {
	req.ID, req.DeadlineUS = o.t.NextID(), o.cfg.DeadlineUS
	return o.t.Exchange(req)
}

// roundTrip performs one messaging exchange that only a response may answer.
func (o Ops[T]) roundTrip(req wire.Request) (wire.Response, error) {
	resp, _, isDesc, err := o.exchange(req)
	if err == nil && isDesc {
		err = fmt.Errorf("%w: descriptor answering request type %d", ErrServer, req.Type)
	}
	return resp, err
}

// serverRead runs one server-executed read — req is a MsgSearch or MsgKNN —
// to its items. By fast messaging the response segments carry them. By
// remote result fetching (DESIGN.md §5.10) the request goes out retyped
// *Fetch: the server deposits the result in a mailbox slot and replies
// with a 30-byte descriptor, and the client pulls the slot with one-sided
// reads (slot packing preserves item order) and acknowledges it. Small
// results still arrive inline, a server without a mailbox is asked the
// fast way outright, and a pull that gives up re-executes over fast
// messaging — fetch is an optimization, never a correctness dependency.
func (o Ops[T]) serverRead(req wire.Request, fetch bool) ([]wire.Item, error) {
	if fetch && o.cfg.Mailbox.SlotChunks > 0 {
		freq := req
		freq.Type = fetchType(req.Type)
		resp, desc, isDesc, err := o.exchange(freq)
		if err != nil {
			return nil, err
		}
		if !isDesc {
			if err := OpError(req.Type, resp.Status); err != nil {
				return nil, err
			}
			o.Counters.FetchInline.Inc()
			return resp.Items, nil
		}
		if err := OpError(req.Type, desc.Status); err != nil {
			return nil, err
		}
		if items, err := o.pullMailbox(desc); err == nil {
			return items, nil
		}
		// The slot was overwritten under us past the retry budget (or the
		// pull failed outright). The stale slot is not acked — the server
		// already moved its seq on and ignores stale acknowledgements.
		o.Counters.FetchFallbacks.Inc()
	}
	resp, err := o.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if err := OpError(req.Type, resp.Status); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// fetchType is the *Fetch twin of a read request type.
func fetchType(t wire.MsgType) wire.MsgType {
	if t == wire.MsgKNN {
		return wire.MsgKNNFetch
	}
	return wire.MsgSearchFetch
}

// pullMailbox reads the slot named by desc with waves of one-sided reads,
// validates it through the region's seqlock surface (the transport's part)
// plus the slot header's sequence stamp, decodes the packed items and
// acknowledges the slot so the server can reuse it. Torn or stale
// snapshots retry up to MaxChunkRetries.
func (o Ops[T]) pullMailbox(desc wire.FetchDesc) ([]wire.Item, error) {
	mb := o.cfg.Mailbox
	chunks := region.MailboxChunks(int(desc.Bytes), mb.ChunkPayload)
	base := int(desc.Slot) * mb.SlotChunks
	if chunks > mb.SlotChunks || base+chunks > mb.Chunks {
		return nil, fmt.Errorf("%w: descriptor slot %d/%d B out of mailbox bounds", ErrServer, desc.Slot, desc.Bytes)
	}
	payloads := make([][]byte, chunks)
	for retry := 0; retry <= o.cfg.MaxChunkRetries; retry++ {
		torn, err := o.t.ReadMailbox(base, payloads)
		if err != nil {
			return nil, err
		}
		if !torn {
			buf, err := region.AssembleMailbox(payloads, desc.Seq, int(desc.Bytes))
			if err == nil {
				items, err := wire.DecodeItems(buf, int(desc.Count))
				if err != nil {
					return nil, err
				}
				o.Counters.FetchBytes.Add(uint64(desc.Bytes))
				o.t.AckFetch(desc, len(items))
				return items, nil
			}
			// A header that disagrees with the descriptor means the slot
			// was already reused.
			if !errors.Is(err, region.ErrStaleSlot) {
				return nil, err
			}
		}
		o.Counters.FetchRetries.Inc()
	}
	return nil, ErrGaveUp
}
