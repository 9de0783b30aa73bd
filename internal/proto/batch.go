package proto

import (
	"fmt"
	"sort"

	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// ExecBatch executes up to wire.MaxBatch operations as one client batch,
// reusing the caller's results slice.
//
// Writes and messaging-routed reads are coalesced into a single batch
// container — one ring write or frame, one server latch acquisition and
// charge — while searches that Algorithm 1 (or a forced method) routes to
// offloading run as client-side traversals overlapped with the in-flight
// batch, and reads routed to fetch ride the container retyped, their
// mailbox pulls running once every reply is in. Writes never offload
// (§IV-A), and every read consults the adaptive switch individually, so the
// per-search back-off window accounting is exactly that of the unbatched
// client. A batch of one delegates to the unbatched path bit for bit.
func (o Ops[T]) ExecBatch(ops []BatchOp, results []BatchResult) []BatchResult {
	results = results[:0]
	for range ops {
		results = append(results, BatchResult{})
	}
	switch {
	case len(ops) == 0:
		return results
	case len(ops) == 1:
		results[0] = o.execOne(ops[0])
		return results
	case len(ops) > wire.MaxBatch:
		// More than a container's count field can say: refuse the batch
		// whole rather than send part of it.
		err := fmt.Errorf("%w: batch of %d operations exceeds %d", ErrServer, len(ops), wire.MaxBatch)
		for i := range results {
			results[i].Err = err
		}
		return results
	}

	f := flight{ops: ops, results: results, stats: &o.Counters, pending: make(map[uint64]int, len(ops))}
	type wireOp struct {
		op    int // index into ops/results
		fetch bool
	}
	var wired []wireOp
	var offload []int
	for i, op := range ops {
		switch op.Type {
		case wire.MsgInsert, wire.MsgDelete, wire.MsgMove:
			o.countWrite(op.Type)
			results[i].Method = o.cfg.Messaging
			wired = append(wired, wireOp{op: i})
		case wire.MsgSearch, wire.MsgKNN:
			switch m := o.readMethod(op.Type); {
			case m == MethodOffload:
				o.Counters.OffloadSearches.Inc()
				results[i].Method = MethodOffload
				offload = append(offload, i)
			case m == MethodFetch && o.cfg.Mailbox.SlotChunks > 0:
				results[i].Method = o.countRead(MethodFetch)
				wired = append(wired, wireOp{op: i, fetch: true})
			default:
				results[i].Method = o.countRead(o.cfg.Messaging)
				wired = append(wired, wireOp{op: i})
			}
		default:
			results[i].Err = fmt.Errorf("%w: unsupported batch op type %d", ErrServer, op.Type)
		}
	}
	overlap := func() {
		for _, i := range offload {
			results[i].Items, _, results[i].Err = o.offload(ops[i].Rect)
		}
	}
	if len(wired) == 0 {
		overlap()
		return results
	}

	buf := wire.GetBuf()
	var enc wire.BatchEncoder
	enc.Reset((*buf)[:0])
	ids := make([]uint64, len(wired))
	for j, w := range wired {
		req := opRequest(ops[w.op])
		if w.fetch {
			req.Type = fetchType(req.Type)
		}
		req.ID, req.DeadlineUS = o.t.NextID(), o.cfg.DeadlineUS
		ids[j], f.pending[req.ID] = req.ID, w.op
		enc.Begin()
		enc.Buf = req.Encode(enc.Buf)
		enc.End()
	}
	o.Counters.BatchesSent.Inc()
	o.Counters.BatchedOps.Add(uint64(len(wired)))
	err := o.t.Batch(enc.Bytes(), ids, overlap, f.deliver)
	*buf = enc.Buf
	wire.PutBuf(buf)
	if err != nil {
		f.failRest(err)
		return results
	}

	// Pull phase: resolve every descriptor against the mailbox, in batch
	// order for determinism. A pull past its retry budget re-executes the
	// read over fast messaging, exactly like the unbatched fetch path.
	sort.Slice(f.descs, func(i, j int) bool { return f.descs[i].op < f.descs[j].op })
	for _, pd := range f.descs {
		res, typ := &results[pd.op], ops[pd.op].Type
		if res.Err = OpError(typ, pd.desc.Status); res.Err != nil {
			continue
		}
		items, err := o.pullMailbox(pd.desc)
		if err != nil {
			o.Counters.FetchFallbacks.Inc()
			items, err = o.serverRead(opRequest(ops[pd.op]), false)
		}
		res.Items, res.Err = append(res.Items, items...), err
	}
	return results
}

// execOne runs a batch of one through the unbatched operations.
func (o Ops[T]) execOne(op BatchOp) BatchResult {
	switch op.Type {
	case wire.MsgInsert, wire.MsgDelete, wire.MsgMove:
		return BatchResult{Method: MethodFast, Err: o.write(opRequest(op))}
	case wire.MsgKNN:
		items, m, err := o.knn(opRequest(op))
		return BatchResult{Method: m, Items: items, Err: err}
	}
	items, m, err := o.Search(op.Rect)
	return BatchResult{Method: m, Items: items, Err: err}
}

// opRequest is op as an (unstamped) wire request.
func opRequest(op BatchOp) wire.Request {
	return wire.Request{Type: op.Type, Rect: op.Rect, Ref: op.Ref, Rect2: op.Rect2}
}

// flight is the collect state of one in-flight batch container.
type flight struct {
	ops     []BatchOp
	results []BatchResult
	stats   *telemetry.ClientMetrics
	// pending maps the id of every sub-request still awaiting its END
	// segment or descriptor to its op.
	pending map[uint64]int
	// descs are the descriptors of fetch-routed reads, pulled after the
	// collect so the batch exchange itself never blocks on mailbox reads.
	descs []pendingDesc
}

type pendingDesc struct {
	op   int
	desc wire.FetchDesc
}

// deliver folds one reply message into its op's result and reports whether
// every op has now been answered. Messages that are no reply to a pending
// op — stray frames, segments of an abandoned exchange — are skipped; a
// reply to a pending op that does not decode ends that op with the error.
func (f *flight) deliver(msg []byte) bool {
	typ, id, err := wire.PeekID(msg)
	i, ok := f.pending[id]
	if err != nil || !ok {
		return len(f.pending) == 0
	}
	res, final := &f.results[i], true
	if typ == wire.MsgFetchDesc {
		var desc wire.FetchDesc
		if desc, res.Err = wire.DecodeFetchDesc(msg); res.Err == nil {
			f.descs = append(f.descs, pendingDesc{op: i, desc: desc})
		}
	} else {
		var resp wire.Response
		resp, res.Err = wire.DecodeResponseAppend(msg, res.Items)
		res.Items = resp.Items
		if final = resp.Final || res.Err != nil; resp.Final {
			res.Err = OpError(f.ops[i].Type, resp.Status)
			if res.Method == MethodFetch {
				f.stats.FetchInline.Inc()
			}
		}
	}
	if final {
		delete(f.pending, id)
	}
	return len(f.pending) == 0
}

// failRest ends every op the transport failed before answering with err.
func (f *flight) failRest(err error) {
	for _, i := range f.pending {
		f.results[i].Err = err
	}
	for _, pd := range f.descs {
		f.results[pd.op].Err = err
	}
}
