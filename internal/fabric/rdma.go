package fabric

import (
	"fmt"
	"sync"
	"time"

	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/sim"
)

// capturePool recycles the buffers Write snapshots its payload into. A
// capture lives only from post to the modelled delivery instant, so the
// pool keeps the fast-messaging hot path free of per-message allocations.
var capturePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// Op is the kind of a completion-queue entry.
type Op int

// Completion kinds.
const (
	// OpWriteImm is delivered to the responder when an RDMA Write with
	// Immediate Data lands (the event-based fast-messaging wake-up).
	OpWriteImm Op = iota + 1
	// OpWriteDone is delivered to the requester when a signaled RDMA Write
	// completes.
	OpWriteDone
	// OpReadDone is delivered to the requester when an RDMA Read returns.
	OpReadDone
)

// Completion is one completion-queue entry.
type Completion struct {
	QP   *QP
	Op   Op
	Imm  uint64 // immediate data (OpWriteImm)
	Tag  uint64 // requester-chosen identifier (OpReadDone, OpWriteDone)
	Data []byte // fetched bytes (OpReadDone)
	Len  int    // payload length
	Err  error  // non-nil when the access failed validation
}

// QP is one endpoint of an RDMA reliable connection. Completions for
// operations this endpoint initiates — and for incoming writes with
// immediate data — appear in its completion queue, which doubles as the
// event channel: a process blocked on CQ().Pop is exactly a thread waiting
// on an ibv event channel, consuming no CPU.
type QP struct {
	net    *Network
	local  *Host
	remote *Host
	peer   *QP
	cq     *sim.Queue[Completion]
	sq     *sim.Resource
}

// DefaultSQDepth is the default send-queue depth (outstanding verbs per QP).
const DefaultSQDepth = 64

// ConnectQP establishes a reliable connection between two hosts and returns
// the two endpoints. sqDepth bounds outstanding operations per endpoint
// (0 selects DefaultSQDepth).
func (n *Network) ConnectQP(a, b *Host, sqDepth int) (*QP, *QP) {
	if sqDepth <= 0 {
		sqDepth = DefaultSQDepth
	}
	qa := &QP{net: n, local: a, remote: b, cq: sim.NewQueue[Completion](n.e), sq: sim.NewResource(n.e, sqDepth)}
	qb := &QP{net: n, local: b, remote: a, cq: sim.NewQueue[Completion](n.e), sq: sim.NewResource(n.e, sqDepth)}
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// CQ returns the endpoint's completion queue / event channel.
func (qp *QP) CQ() *sim.Queue[Completion] { return qp.cq }

// Profile returns the profile of the fabric this endpoint belongs to.
func (qp *QP) Profile() netmodel.Profile { return qp.net.prof }

// Peer returns the other endpoint of the connection.
func (qp *QP) Peer() *QP { return qp.peer }

// Local returns the local host.
func (qp *QP) Local() *Host { return qp.local }

// WriteOpts control an RDMA Write.
type WriteOpts struct {
	// Imm, when Notify is set, is delivered to the responder's CQ with the
	// write (RDMA Write with Immediate Data).
	Imm uint64
	// Notify selects Write-with-IMM: the responder's NIC raises a
	// completion event, waking a thread blocked on its CQ.
	Notify bool
	// Signaled requests a local OpWriteDone completion with Tag.
	Signaled bool
	Tag      uint64
}

// Write posts an RDMA Write of data into mem at offset off. It blocks only
// while the send queue is full (p is the posting process). The copy into
// remote memory happens at the modelled delivery instant; data is captured
// at post time, so the caller may reuse its buffer immediately.
func (qp *QP) Write(p *sim.Proc, mem *Memory, off int, data []byte, opts WriteOpts) error {
	if mem.host != qp.remote {
		return ErrWrongHost
	}
	if off < 0 || off+len(data) > len(mem.buf) {
		return fmt.Errorf("%w: write [%d, %d) of %d", ErrBounds, off, off+len(data), len(mem.buf))
	}
	qp.sq.Acquire(p, 1)
	cb := capturePool.Get().(*[]byte)
	captured := append((*cb)[:0], data...)
	size := len(captured)
	deliver := qp.net.deliver(qp.local, qp.remote, size, false)
	n := qp.net
	n.e.After(deliver-n.e.Now(), func() {
		copy(mem.buf[off:], captured)
		*cb = captured[:0]
		capturePool.Put(cb)
		if opts.Notify {
			qp.peer.cq.Push(Completion{QP: qp.peer, Op: OpWriteImm, Imm: opts.Imm, Len: size})
		}
		if opts.Signaled {
			qp.cq.Push(Completion{QP: qp, Op: OpWriteDone, Tag: opts.Tag, Len: size})
		}
		qp.sq.Release(1)
	})
	return nil
}

// readCtrlBytes is the wire size of an RDMA Read request message.
const readCtrlBytes = 28

// Read posts an RDMA Read of size bytes at offset off of src, owned by the
// remote host. The remote CPU is not involved: the data snapshot is taken by
// the remote NIC at the instant the request arrives there. The completion —
// with the fetched bytes — lands in this endpoint's CQ carrying tag.
func (qp *QP) Read(p *sim.Proc, src Readable, off, size int, tag uint64) error {
	return qp.readPost(p, src, off, size, tag, qp.net.prof.NICOverhead)
}

// readPost is Read with an explicit posting-side overhead (see ReadBatch).
func (qp *QP) readPost(p *sim.Proc, src Readable, off, size int, tag uint64, postOH time.Duration) error {
	if src.Host() != qp.remote {
		return ErrWrongHost
	}
	qp.sq.Acquire(p, 1)
	n := qp.net
	// Control leg: request travels requester -> responder.
	ctrlArrive := n.deliverPost(qp.local, qp.remote, readCtrlBytes, false, postOH)
	n.e.After(ctrlArrive-n.e.Now(), func() {
		// The responder NIC DMAs the data now; this is the linearization
		// point of the one-sided read.
		data := make([]byte, size)
		err := src.ReadAt(off, data)
		if err != nil {
			qp.cq.Push(Completion{QP: qp, Op: OpReadDone, Tag: tag, Err: err})
			qp.sq.Release(1)
			return
		}
		// Response data is served by the responder NIC's hardware read
		// engine, not the remote host's send engine (see Host.rdtx).
		dataArrive := n.deliverRead(qp.remote, qp.local, size)
		n.e.After(dataArrive-n.e.Now(), func() {
			qp.cq.Push(Completion{QP: qp, Op: OpReadDone, Tag: tag, Data: data, Len: size})
			qp.sq.Release(1)
		})
	})
	return nil
}

// ReadReq describes one read of a doorbell-batched submission.
type ReadReq struct {
	Src  Readable
	Off  int
	Size int
	Tag  uint64
}

// ReadBatch posts reqs as one doorbell-batched SQ submission (RDMAbox-style
// multi-WQE post): the first WQE pays the fabric's full per-message NIC
// setup cost, each later WQE only DoorbellPerWQE, while every read still
// pays its own wire (serialization + propagation) cost and full completion
// overhead. Completions arrive individually, tagged per request.
//
// When the profile's MergeSpan exceeds 1, a coalescing pass folds runs of
// consecutive requests that target physically-adjacent offsets of the same
// Readable into a single larger read: one WQE and one data transfer, whose
// arrival is demuxed into per-request completions on the requester side.
// Only requests adjacent in reqs merge — callers control merge opportunity
// by ordering the batch. With MergeSpan <= 1 — or with one request, or on
// a fabric whose DoorbellPerWQE is zero — ReadBatch is identical to
// posting each Read in order.
//
// It returns the number of requests actually posted (always a prefix of
// reqs) and the number of WQEs those posts consumed. On error the
// remaining requests were never posted and will produce no completions;
// callers tracking in-flight tags must drop the unposted suffix.
func (qp *QP) ReadBatch(p *sim.Proc, reqs []ReadReq) (posted, wqes int, err error) {
	span := qp.net.prof.MergeSpan
	for posted < len(reqs) {
		run := 1
		if span > 1 {
			for posted+run < len(reqs) && run < span {
				prev, next := reqs[posted+run-1], reqs[posted+run]
				if next.Src != prev.Src || next.Off != prev.Off+prev.Size {
					break
				}
				run++
			}
		}
		postOH := qp.net.prof.NICOverhead
		if wqes > 0 && qp.net.prof.DoorbellPerWQE > 0 {
			postOH = qp.net.prof.DoorbellPerWQE
		}
		if run == 1 {
			r := reqs[posted]
			err = qp.readPost(p, r.Src, r.Off, r.Size, r.Tag, postOH)
		} else {
			err = qp.readPostMerged(p, reqs[posted:posted+run], postOH)
		}
		if err != nil {
			return posted, wqes, err
		}
		posted += run
		wqes++
	}
	return posted, wqes, nil
}

// readPostMerged posts one RDMA Read covering every request of the
// contiguous run and, at the delivery instant, synthesizes one completion
// per original request, each carrying its slice of the fetched bytes. A
// validation failure (out of bounds, torn span read surface) fails every
// request in the run with per-request error completions.
func (qp *QP) readPostMerged(p *sim.Proc, run []ReadReq, postOH time.Duration) error {
	src := run[0].Src
	if src.Host() != qp.remote {
		return ErrWrongHost
	}
	// The run aliases the caller's batch buffer, which is reused as soon as
	// the post returns; capture the demux plan (offsets come implicitly from
	// the order).
	off := run[0].Off
	total := 0
	sizes := make([]int, len(run))
	tags := make([]uint64, len(run))
	for i, r := range run {
		sizes[i] = r.Size
		tags[i] = r.Tag
		total += r.Size
	}
	qp.sq.Acquire(p, 1)
	n := qp.net
	ctrlArrive := n.deliverPost(qp.local, qp.remote, readCtrlBytes, false, postOH)
	n.e.After(ctrlArrive-n.e.Now(), func() {
		data := make([]byte, total)
		if err := src.ReadAt(off, data); err != nil {
			for _, tag := range tags {
				qp.cq.Push(Completion{QP: qp, Op: OpReadDone, Tag: tag, Err: err})
			}
			qp.sq.Release(1)
			return
		}
		dataArrive := n.deliverRead(qp.remote, qp.local, total)
		n.e.After(dataArrive-n.e.Now(), func() {
			at := 0
			for i, tag := range tags {
				qp.cq.Push(Completion{QP: qp, Op: OpReadDone, Tag: tag,
					Data: data[at : at+sizes[i]], Len: sizes[i]})
				at += sizes[i]
			}
			qp.sq.Release(1)
		})
	})
	return nil
}

// ReadSync posts a Read and blocks until its completion arrives, consuming
// it from the CQ. It must not be mixed with concurrent CQ consumers on the
// same endpoint; multi-issue traversal uses Read plus explicit CQ draining
// instead.
func (qp *QP) ReadSync(p *sim.Proc, src Readable, off, size int) ([]byte, error) {
	if err := qp.Read(p, src, off, size, 0); err != nil {
		return nil, err
	}
	c := qp.cq.Pop(p)
	if c.Op != OpReadDone {
		return nil, fmt.Errorf("fabric: unexpected completion %d on ReadSync endpoint", c.Op)
	}
	return c.Data, c.Err
}
