package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Exec is everything the server core (Serve) needs from the server it runs
// in. The simulated server implements it over a *sim.Proc, a sim latch and
// its cost model; the TCP server over a sync.RWMutex and a connection
// writer. Like Transport it is reached through a type parameter, as a small
// value, so a call neither boxes nor allocates.
type Exec interface {
	// The tree latch, shaped like sync.RWMutex: exclusive for anything that
	// may write, shared for queries.
	RLock()
	RUnlock()
	Lock()
	Unlock()
	// Insert is Tree.Insert run where the transport's node publisher wants
	// it (the sim's staged-publish window); the exclusive latch is held.
	Insert(r geo.Rect, ref uint64) (rtree.OpStats, error)
	// Propagate carries one applied insert or delete to whoever mirrors
	// this tree, before the latch drops, and returns the status the write
	// is acknowledged with (StatusOK when there is nobody to tell).
	Propagate(op wire.MsgType, r geo.Rect, ref uint64) uint8
	// Account reports one executed operation — the i-th of its batch, 0
	// alone — once the latch has dropped and a fetch query's delivery
	// (mailbox or inline) is decided, always before the Reply it precedes.
	Account(kind wire.MsgType, i int, st rtree.OpStats, delivered bool)
	// Reply hands over a finished reply as length-prefixed frames.
	Reply(frames []byte) error
}

// ServeConfig configures a Serve; both servers' own configurations resolve
// to it, zero values and all.
type ServeConfig struct {
	Tree *rtree.Tree
	// Replica, when non-nil, makes client writes conditional on being the
	// primary and lets MsgPromote and ApplyRecords through.
	Replica *replica.Primary
	// MaxSegmentItems caps the items of one response segment (0 selects a
	// segment of ~4 KB).
	MaxSegmentItems int
	// FetchSlots > 0 creates the fetch mailbox: that many slots of
	// FetchSlotChunks chunks (0 selects 64) in a region of its own. A fetch
	// query with at most FetchInlineMax items (0 selects MaxSegmentItems:
	// what fits one segment is cheaper sent than pulled) is answered inline
	// all the same.
	FetchSlots, FetchSlotChunks, FetchInlineMax int
}

// BatchFrameLimit is the size past which a batch reply opens a new
// container; a transport whose frames are smaller passes Batch less.
const BatchFrameLimit = 16 << 10

// Serve is the Catfish server module over execution context X: a request
// comes in decoded, runs against the tree under the latch, its result goes
// through a pooled flat sink into response segments or a mailbox slot, a
// write is propagated, and the reply leaves as frames — written once for
// the simulated and the TCP server, which keep only what is theirs (rings
// and cost model; sockets and dispatcher).
type Serve[X Exec] struct {
	cfg     ServeConfig
	mailbox *region.Mailbox
	mreg    *region.Region
	killed  atomic.Bool
	// Counters is the live counter set; the owning server bumps Heartbeat.
	Counters telemetry.ServerMetrics
}

// NewServe builds the core and, when configured, its fetch mailbox.
func NewServe[X Exec](cfg ServeConfig) (*Serve[X], error) {
	if cfg.MaxSegmentItems == 0 {
		cfg.MaxSegmentItems = 4096 / wire.ItemSize
	}
	if cfg.FetchSlotChunks == 0 {
		cfg.FetchSlotChunks = 64
	}
	if cfg.FetchInlineMax == 0 {
		cfg.FetchInlineMax = cfg.MaxSegmentItems
	}
	s := &Serve[X]{cfg: cfg}
	if cfg.FetchSlots > 0 {
		var err error
		s.mreg, err = region.New(cfg.FetchSlots*cfg.FetchSlotChunks, cfg.Tree.Region().ChunkSize())
		if err != nil {
			return nil, fmt.Errorf("mailbox region: %w", err)
		}
		s.mailbox, err = region.NewMailbox(s.mreg, cfg.FetchSlots, cfg.FetchSlotChunks)
		if err != nil {
			return nil, fmt.Errorf("mailbox: %w", err)
		}
	}
	return s, nil
}

// Config returns the configuration with its defaults resolved.
func (s *Serve[X]) Config() ServeConfig { return s.cfg }

// Register exposes the counters, the replication gauges and the mailbox
// occupancy on reg.
func (s *Serve[X]) Register(reg *telemetry.Registry) {
	s.Counters.Register(reg)
	if pr := s.cfg.Replica; pr != nil {
		reg.CounterFunc("catfish_server_repl_shipped_total", pr.Shipped)
		reg.CounterFunc("catfish_server_repl_resends_total", pr.Resends)
		reg.GaugeFunc("catfish_server_repl_lag", pr.Lag)
	}
	if s.mailbox == nil {
		return
	}
	reg.CounterFunc("catfish_server_fetch_exhausted_total", s.mailbox.Exhausted)
	reg.GaugeFunc("catfish_server_mailbox_slots_used", func() float64 {
		used, _ := s.mailbox.Occupancy()
		return float64(used)
	})
	reg.GaugeFunc("catfish_server_mailbox_slots_total", func() float64 {
		_, total := s.mailbox.Occupancy()
		return float64(total)
	})
}

// Mailbox returns the fetch mailbox and the region it lives in (nil, nil
// when fetch is disabled).
func (s *Serve[X]) Mailbox() (*region.Mailbox, *region.Region) { return s.mailbox, s.mreg }

// Reclaim frees the slot a client's FETCH_ACK names; a stale ack, or one
// sent to a server without a mailbox, is dropped.
func (s *Serve[X]) Reclaim(ack wire.FetchAck) {
	if s.mailbox != nil {
		s.mailbox.Reclaim(int(ack.Slot), ack.Seq)
	}
}

// Kill makes the core refuse all work from now on: every request and every
// operation of every batch is answered StatusUnavailable — answered, since a
// silent drop would leave the client waiting forever.
func (s *Serve[X]) Kill() { s.killed.Store(true) }

// Killed reports whether Kill has been called.
func (s *Serve[X]) Killed() bool { return s.killed.Load() }

// sink is the scratch one request — or one whole batch — executes into and
// replies from (DESIGN.md §5.14): queries emit their matches as packed wire
// items, memory writes only, which is all that may happen under a shared
// latch; once it has dropped the same bytes go to a mailbox slot or are
// framed into CONT/END segments.
type sink struct {
	items []byte   // packed items of every query run so far
	out   []byte   // length-prefixed frames of the reply
	ops   []sinkOp // a batch's operations
}

// sinkOp is one batched operation and its outcome: its status and, for a
// query, which span of the sink's items is its result.
type sinkOp struct {
	req      wire.Request
	status   uint8
	ran      bool // executed against the tree, so accounted
	from, to int  // items[from:to]
	st       rtree.OpStats
}

// maxPooledSink bounds the buffers a pooled sink may keep; one that served
// a larger reply drops them rather than pinning them.
const maxPooledSink = 1 << 20

var sinkPool = sync.Pool{New: func() any { return new(sink) }}

func getSink() *sink { return sinkPool.Get().(*sink) }

func putSink(k *sink) {
	if cap(k.items) > maxPooledSink {
		k.items = nil
	}
	if cap(k.out) > maxPooledSink {
		k.out = nil
	}
	k.items, k.out, k.ops = k.items[:0], k.out[:0], k.ops[:0]
	sinkPool.Put(k)
}

func (k *sink) emit(r geo.Rect, ref uint64) bool {
	k.items = wire.AppendItem(k.items, r, ref)
	return true
}

func (k *sink) emitNeighbor(n rtree.Neighbor) {
	k.items = wire.AppendItem(k.items, n.Rect, n.Ref)
}

// decode unpacks a batch container into k.ops, each failed until it runs.
// An undecodable sub-request becomes the zero Request, so it stays failed and
// is answered under id 0; any
// decodable one that is not a query makes the batch a writing one. ok is
// false for a corrupt container.
func (k *sink) decode(container []byte) (hasWrite, ok bool) {
	it, err := wire.DecodeBatch(container)
	if err != nil {
		return false, false
	}
	for {
		msg, more := it.Next()
		if !more {
			return hasWrite, it.Err() == nil
		}
		req, err := wire.DecodeRequest(msg)
		if err != nil {
			req = wire.Request{}
		} else if !isQuery(req.Type) {
			hasWrite = true
		}
		k.ops = append(k.ops, sinkOp{req: req, status: wire.StatusError})
	}
}

func isQuery(t wire.MsgType) bool {
	return t == wire.MsgSearch || t == wire.MsgKNN || isFetch(t)
}

// isFetch reports whether a query asked for mailbox delivery.
func isFetch(t wire.MsgType) bool { return t == wire.MsgSearchFetch || t == wire.MsgKNNFetch }

func isWrite(t wire.MsgType) bool {
	return t == wire.MsgInsert || t == wire.MsgDelete || t == wire.MsgMove
}

// Request executes one request that did not arrive in a batch — a query, a
// write or MsgPromote — and replies. Each takes the latch for itself, held
// only while the tree is read or written: delivery, framing and the reply
// (which may block on a slow peer) all follow its release.
func (s *Serve[X]) Request(x X, req wire.Request) error {
	k := getSink()
	defer putSink(k)
	status := uint8(wire.StatusError)
	switch {
	case s.killed.Load():
		status = wire.StatusUnavailable
	case isQuery(req.Type):
		x.RLock()
		st, err := s.query(k, req)
		x.RUnlock()
		if err != nil {
			break
		}
		desc, delivered := s.deliver(req.Type, req.ID, k.items)
		x.Account(req.Type, 0, st, delivered)
		if delivered {
			k.out = desc.Encode(binary.LittleEndian.AppendUint32(k.out, wire.FetchDescSize))
		} else {
			k.out = s.appendSegments(k.out, req.ID, wire.StatusOK, k.items)
		}
		return x.Reply(k.out)
	case isWrite(req.Type):
		x.Lock()
		var st rtree.OpStats
		st, status = s.applyLocked(x, req)
		x.Unlock()
		// Also when the write was refused as not-primary: a lone refused
		// write is charged its fixed cost, a batched one nothing. The sim
		// always did both, and its golden pins both.
		x.Account(req.Type, 0, st, false)
	case req.Type == wire.MsgPromote && s.cfg.Replica != nil:
		// Failover control plane: adopt Ref as the shard's epoch and start
		// accepting client writes, fencing lower-epoch lineages.
		if s.cfg.Replica.State().Promote(req.Ref) {
			s.Counters.Promotions.Inc()
		}
		status = wire.StatusOK
	}
	return s.status(x, k, req.ID, status)
}

// Status answers id with a lone END segment carrying only a status — how an
// undecodable or shed request is refused.
func (s *Serve[X]) Status(x X, id uint64, status uint8) error {
	k := getSink()
	defer putSink(k)
	return s.status(x, k, id, status)
}

func (s *Serve[X]) status(x X, k *sink, id uint64, status uint8) error {
	k.out = s.appendSegments(k.out[:0], id, status, nil)
	return x.Reply(k.out)
}

// Batch executes a batch container under one latch hold — exclusive when
// any operation may write, shared for a read-only batch — and replies with
// batch containers of at most limit bytes. A batch at a killed server still
// answers every operation id so the client's collector terminates.
func (s *Serve[X]) Batch(x X, container []byte, limit int) error {
	k := getSink()
	defer putSink(k)
	hasWrite, ok := k.decode(container)
	switch {
	case !ok:
		return s.status(x, k, 0, wire.StatusError)
	case len(k.ops) == 0:
		return nil
	case s.killed.Load():
		return s.refuse(x, k, wire.StatusUnavailable, limit)
	}
	s.Counters.Batches.Inc()
	s.Counters.BatchedOps.Add(uint64(len(k.ops)))
	if hasWrite {
		x.Lock()
	} else {
		x.RLock()
	}
	for i := range k.ops {
		op := &k.ops[i]
		op.from = len(k.items)
		switch {
		case isQuery(op.req.Type):
			if st, err := s.query(k, op.req); err == nil {
				op.status, op.st, op.ran = wire.StatusOK, st, true
			}
		case isWrite(op.req.Type):
			op.st, op.status = s.applyLocked(x, op.req)
			op.ran = op.status != wire.StatusNotPrimary
		}
		op.to = len(k.items)
	}
	if hasWrite {
		x.Unlock()
	} else {
		x.RUnlock()
	}
	return s.respondBatch(x, k, limit)
}

// Refuse answers every operation of a batch container with status without
// executing any — the admission controller's shed — and returns how many
// operations that was.
func (s *Serve[X]) Refuse(x X, container []byte, status uint8, limit int) (int, error) {
	k := getSink()
	defer putSink(k)
	if _, ok := k.decode(container); !ok {
		return 0, s.status(x, k, 0, wire.StatusError)
	}
	return len(k.ops), s.refuse(x, k, status, limit)
}

func (s *Serve[X]) refuse(x X, k *sink, status uint8, limit int) error {
	for i := range k.ops {
		k.ops[i].status = status
	}
	return s.respondBatch(x, k, limit)
}

// query runs one search or kNN (plain or fetch) with the latch held,
// appending the matches to k.items; a failed query leaves none behind.
// SearchShared and NearestShared touch no tree scratch state, so queries
// under a shared latch run in parallel. For a kNN the query point is the
// degenerate rect's center and k rides Ref; neighbors are emitted in
// ascending distance, the order every later stage — slot packing included —
// preserves.
func (s *Serve[X]) query(k *sink, req wire.Request) (rtree.OpStats, error) {
	from := len(k.items)
	var st rtree.OpStats
	var err error
	if isFetch(req.Type) {
		s.Counters.FetchSearches.Inc()
	}
	if req.Type == wire.MsgSearch || req.Type == wire.MsgSearchFetch {
		s.Counters.Searches.Inc()
		st, err = s.cfg.Tree.SearchShared(req.Rect, k.emit)
	} else {
		s.Counters.KNNs.Inc()
		x, y := req.Rect.Center()
		st, err = s.cfg.Tree.NearestShared(int(req.Ref), x, y, k.emitNeighbor)
	}
	if err != nil {
		k.items = k.items[:from]
		return st, err
	}
	s.Counters.Results.Add(uint64(st.Results))
	return st, nil
}

// applyLocked executes one write — insert, delete or MOVE — with the
// exclusive latch held and returns its status. A write is propagated before
// the latch drops, so an acknowledged write is on every live backup and
// failover loses nothing.
func (s *Serve[X]) applyLocked(x X, req wire.Request) (st rtree.OpStats, status uint8) {
	switch req.Type {
	case wire.MsgInsert:
		s.Counters.Inserts.Inc()
	case wire.MsgDelete:
		s.Counters.Deletes.Inc()
	default:
		s.Counters.Moves.Inc()
	}
	if s.cfg.Replica != nil && !s.cfg.Replica.State().Primary() {
		return st, wire.StatusNotPrimary
	}
	var err error
	switch req.Type {
	case wire.MsgInsert:
		st, err = x.Insert(req.Rect, req.Ref)
	case wire.MsgDelete:
		var found bool
		found, st, err = s.cfg.Tree.Delete(req.Rect, req.Ref)
		if err == nil && !found {
			return st, wire.StatusNotFound
		}
	default:
		return s.moveLocked(x, req)
	}
	if err != nil {
		return st, wire.StatusError
	}
	return st, x.Propagate(req.Type, req.Rect, req.Ref)
}

// moveLocked relocates entry (req.Rect, req.Ref) to (req.Rect2, req.Ref).
// The exclusive latch is held throughout, so no concurrent search observes
// the object absent on the way. The tree finds the entry once: a destination
// its leaf still covers is written into that leaf, any other takes a delete
// and an insert. A missing source entry degrades the move to a plain insert —
// the state the equivalent delete-then-insert stream reaches, since a failed
// delete does not suppress the insert that follows it. The replication record
// carries one rectangle, so a move propagates as two whichever way the tree
// took it: the delete only when a source entry existed, the insert always.
func (s *Serve[X]) moveLocked(x X, req wire.Request) (rtree.OpStats, uint8) {
	how, st, err := s.cfg.Tree.Relocate(req.Rect, req.Rect2, req.Ref)
	if err != nil {
		return st, wire.StatusError
	}
	if how == rtree.RelocateInPlace {
		s.Counters.MovesInPlace.Inc()
	}
	if how != rtree.RelocateAbsent {
		if status := x.Propagate(wire.MsgDelete, req.Rect, req.Ref); status != wire.StatusOK {
			return st, status
		}
	}
	if how != rtree.RelocateInPlace {
		ist, err := x.Insert(req.Rect2, req.Ref)
		st.NodesRead += ist.NodesRead
		st.NodesWritten += ist.NodesWritten
		if err != nil {
			return st, wire.StatusError
		}
	}
	return st, x.Propagate(wire.MsgInsert, req.Rect2, req.Ref)
}

// ApplyRecords is the backup half of replication, behind both transports:
// it applies a record batch, the exclusive latch held by the caller, and
// returns the ack with the backup's (epoch, applied) and how many records it
// applied at what cost. Each record goes through the replica state's epoch
// fence and sequence check, then into the tree and the op-log; a duplicate
// from a resend overlap is skipped, and a gap, a fence or a record that is
// no mutation stops the batch with StatusError or StatusFenced. A server
// that is no replica answers StatusError, a killed one StatusUnavailable.
func (s *Serve[X]) ApplyRecords(x X, recs []replica.Record) (ack wire.ReplAck, n int, st rtree.OpStats) {
	pr := s.cfg.Replica
	if pr == nil {
		return wire.ReplAck{Status: wire.StatusError}, 0, st
	}
	ack.Status = wire.StatusOK
	if s.killed.Load() {
		ack.Status, recs = wire.StatusUnavailable, nil // answered, nothing applied
	}
	for _, rec := range recs {
		if err := pr.State().Accept(rec.Epoch, rec.Seq); err != nil {
			var gap *replica.GapError
			if errors.As(err, &gap) && gap.Got <= gap.Applied {
				continue // a duplicate from a resend overlap
			}
			ack.Status = replica.StatusOf(err)
			break
		}
		var rst rtree.OpStats
		var err error
		switch rec.Op {
		case wire.MsgInsert:
			rst, err = x.Insert(rec.Rect, rec.Ref)
		case wire.MsgDelete:
			_, rst, err = s.cfg.Tree.Delete(rec.Rect, rec.Ref)
		default:
			err = fmt.Errorf("proto: replicated op %d not a mutation", rec.Op)
		}
		if err != nil {
			ack.Status = wire.StatusError
			break
		}
		s.Counters.ReplRecords.Inc()
		pr.Append(rec)
		n++
		st.NodesRead += rst.NodesRead
		st.NodesWritten += rst.NodesWritten
	}
	ack.Epoch, ack.AppliedSeq = pr.State().Snapshot()
	return ack, n, st
}

// deliver resolves a query's delivery once the latch has dropped (a grant
// is not a memory write). For a *Fetch query it writes the packed items —
// they already are the slot payload format — into a granted mailbox slot
// and returns the descriptor for them. It declines, sending the caller down
// the inline path (counted), when fetch is disabled, the result is small
// enough that sending beats pulling, the payload exceeds a slot, or every
// slot is taken.
func (s *Serve[X]) deliver(kind wire.MsgType, id uint64, items []byte) (wire.FetchDesc, bool) {
	if !isFetch(kind) {
		return wire.FetchDesc{}, false
	}
	count := len(items) / wire.ItemSize
	if s.mailbox != nil && count > s.cfg.FetchInlineMax && len(items) <= s.mailbox.Capacity() {
		if slot, ok := s.mailbox.Grant(); ok {
			ref, err := s.mailbox.WriteResult(slot, items)
			if err == nil {
				s.Counters.FetchBytes.Add(uint64(ref.Bytes))
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
	s.Counters.FetchInline.Inc()
	return wire.FetchDesc{}, false
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
// frames: packed items cut into CONT segments of at most MaxSegmentItems
// and an END segment, each byte-identical to wire.Response.Encode of those
// items.
func (s *Serve[X]) appendSegments(out []byte, id uint64, status uint8, items []byte) []byte {
	for n := uint64(1); ; n++ {
		seg, rest, final := nextSegment(items, s.cfg.MaxSegmentItems)
		out = binary.LittleEndian.AppendUint32(out, uint32(wire.ResponseHeaderSize+len(seg)))
		out = wire.AppendResponseHeader(out, id, final, status, len(seg)/wire.ItemSize)
		out = append(out, seg...)
		if final {
			s.Counters.Segments.Add(n)
			return out
		}
		items = rest
	}
}

// respondBatch decides every fetch query's delivery, accounts the
// operations that ran, and frames the outcomes as batch containers of
// response segments — a new container whenever the next sub-message would
// pass limit, so a large batch reply never exceeds what one transport
// frame may carry. Each operation keeps its own CONT/END segmentation
// inside the containers; a delivered fetch query answers with its
// descriptor instead.
func (s *Serve[X]) respondBatch(x X, k *sink, limit int) error {
	maxItems := s.cfg.MaxSegmentItems
	if fit := (limit - wire.BatchOverhead(1) - wire.ResponseHeaderSize) / wire.ItemSize; fit < maxItems {
		maxItems = max(fit, 1)
	}
	var enc wire.BatchEncoder
	open, segments := false, uint64(0)
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
	for i := range k.ops {
		op := &k.ops[i]
		items := k.items[op.from:op.to]
		desc, delivered := wire.FetchDesc{}, false
		if op.ran {
			desc, delivered = s.deliver(op.req.Type, op.req.ID, items)
			x.Account(op.req.Type, i, op.st, delivered)
		}
		if delivered {
			sub(wire.FetchDescSize)
			enc.Buf = desc.Encode(enc.Buf)
			enc.End()
			continue
		}
		for {
			seg, rest, final := nextSegment(items, maxItems)
			sub(wire.ResponseHeaderSize + len(seg))
			enc.Buf = wire.AppendResponseHeader(enc.Buf, op.req.ID, final, op.status, len(seg)/wire.ItemSize)
			enc.Buf = append(enc.Buf, seg...)
			enc.End()
			segments++
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
	s.Counters.Segments.Add(segments)
	return x.Reply(k.out)
}
