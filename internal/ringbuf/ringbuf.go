// Package ringbuf implements the paper's ring-buffer messaging design
// (Fig 5) over RDMA Write: a pre-allocated, registered receive buffer into
// which the remote side writes length-framed messages, with a free pointer
// (tail) advanced by the writer and a processed pointer (head) advanced by
// the reader and mirrored back to the writer with an RDMA Write so the
// writer can tell when space has been consumed.
//
// A frame is [size uint32][payload]. When a frame would straddle the ring's
// physical end, the writer emits a pad marker (size = padMarker) and
// restarts at offset zero, so every frame is physically contiguous — a
// requirement for single-RDMA-Write delivery.
package ringbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/sim"
)

const (
	frameHeader = 4
	padMarker   = ^uint32(0)
	// HeadMirrorSize is the registered buffer size for the head mirror.
	HeadMirrorSize = 8
)

// Errors.
var (
	ErrTooLarge = errors.New("ringbuf: message exceeds ring capacity")
	ErrCorrupt  = errors.New("ringbuf: corrupt frame")
)

// Writer is the sending end: it RDMA-Writes frames into the remote ring and
// watches the locally mirrored head to respect the reader's progress.
type Writer struct {
	qp         *fabric.QP
	ring       *fabric.Memory // remote ring buffer
	headMirror *fabric.Memory // local 8-byte mirror, written by the reader
	tail       uint64         // absolute byte offset (monotone)
	head       uint64         // last observed processed offset
	size       uint64
	scratch    []byte
	// FullPollInterval is how long the writer sleeps between head-mirror
	// polls when the ring is full.
	FullPollInterval time.Duration
}

// Reader is the receiving end: it parses frames from its local ring and
// reports consumption by RDMA-Writing its head to the writer's mirror.
type Reader struct {
	qp       *fabric.QP
	ring     *fabric.Memory // local ring buffer
	mirror   *fabric.Memory // remote writer's head mirror
	head     uint64
	reported uint64
	size     uint64
	scratch  []byte // reused TryRecv payload buffer
}

// New wires up a ring of size bytes whose data flows from the writer host
// (behind wqp) to the reader host behind rqp. The two endpoints must be the
// two halves of one connection (wqp.Peer() == rqp) so that Write-with-IMM
// events raised by the writer surface on the reader's completion queue. The
// ring lives on the reading host, the head mirror on the writing host.
func New(wqp, rqp *fabric.QP, size int) (*Writer, *Reader, error) {
	if size < 64 {
		return nil, nil, fmt.Errorf("ringbuf: size %d too small", size)
	}
	if wqp.Peer() != rqp {
		return nil, nil, errors.New("ringbuf: endpoints are not peers of one connection")
	}
	ring := rqp.Local().RegisterMemory(size)
	mirror := wqp.Local().RegisterMemory(HeadMirrorSize)
	w := &Writer{
		qp:               wqp,
		ring:             ring,
		headMirror:       mirror,
		size:             uint64(size),
		FullPollInterval: 5 * time.Microsecond,
	}
	r := &Reader{
		qp:     rqp,
		ring:   ring,
		mirror: mirror,
		size:   uint64(size),
	}
	return w, r, nil
}

// MaxPayload returns the largest payload Send accepts: half the ring minus
// framing. Frames must be physically contiguous, and a frame larger than
// half the ring can reach a state where neither the tail run nor the
// wrapped start ever has room (the pad plus the frame exceed the ring), so
// the writer would stall forever. Batch senders flush below this bound.
func (w *Writer) MaxPayload() int { return int(w.size/2) - frameHeader }

// QP returns the writer's queue-pair endpoint (local = writing host). The
// server reuses it for heartbeat-mailbox writes to the same client.
func (w *Writer) QP() *fabric.QP { return w.qp }

// refreshHead re-reads the locally mirrored processed pointer.
func (w *Writer) refreshHead() {
	w.head = binary.LittleEndian.Uint64(w.headMirror.Bytes())
}

// free returns the writable bytes remaining.
func (w *Writer) free() uint64 { return w.size - (w.tail - w.head) }

// Send frames payload and RDMA-Writes it into the remote ring, blocking
// (polling the head mirror) while the ring is full. When notify is set the
// write carries immediate data imm, raising a completion event at the
// reader (event-based fast messaging); otherwise the reader must poll.
func (w *Writer) Send(p *sim.Proc, payload []byte, imm uint64, notify bool) error {
	need := uint64(frameHeader + len(payload))
	// Frames above half the ring could wedge the writer: once the tail sits
	// past the midpoint, pad-to-end plus the frame exceeds the ring and no
	// amount of reader progress ever frees enough contiguous space (the old
	// bound of size-2*frameHeader let batched payloads hit exactly that
	// permanent stall). See MaxPayload.
	if need*2 > w.size {
		return fmt.Errorf("%w: %d bytes into %d ring (max payload %d)",
			ErrTooLarge, len(payload), w.size, w.MaxPayload())
	}
	for {
		// Account for a possible pad frame to the physical end.
		pos := w.tail % w.size
		pad := uint64(0)
		if pos+need > w.size {
			pad = w.size - pos
		}
		if w.free() >= need+pad {
			if pad > 0 {
				if pad >= frameHeader {
					var hdr [frameHeader]byte
					binary.LittleEndian.PutUint32(hdr[:], padMarker)
					if err := w.qp.Write(p, w.ring, int(pos), hdr[:], fabric.WriteOpts{}); err != nil {
						return err
					}
				}
				w.tail += pad
				pos = 0
			}
			w.scratch = w.scratch[:0]
			w.scratch = append(w.scratch, 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(w.scratch, uint32(len(payload)))
			w.scratch = append(w.scratch, payload...)
			if err := w.qp.Write(p, w.ring, int(pos), w.scratch,
				fabric.WriteOpts{Imm: imm, Notify: notify}); err != nil {
				return err
			}
			w.tail += need
			return nil
		}
		w.refreshHead()
		if w.free() >= need+pad {
			continue
		}
		p.Sleep(w.FullPollInterval)
		w.refreshHead()
	}
}

// TryRecv parses the next frame from the ring without blocking, returning
// the payload and true when a complete frame is present. The payload is a
// copy into a buffer the Reader reuses: it is valid only until the next
// TryRecv call (callers decode before polling again; retain a copy
// otherwise). Consumed bytes are zeroed so stale frames from a previous
// lap can never be mistaken for new arrivals.
func (r *Reader) TryRecv() ([]byte, error, bool) {
	buf := r.ring.Bytes()
	for {
		pos := r.head % r.size
		if pos+frameHeader > r.size {
			// Implicit pad: too little room for even a header.
			for i := pos; i < r.size; i++ {
				buf[i] = 0
			}
			r.head += r.size - pos
			continue
		}
		sz := binary.LittleEndian.Uint32(buf[pos:])
		if sz == 0 {
			return nil, nil, false // nothing arrived yet
		}
		if sz == padMarker {
			for i := pos; i < r.size; i++ {
				buf[i] = 0
			}
			r.head += r.size - pos
			continue
		}
		if uint64(frameHeader+sz) > r.size-pos {
			return nil, fmt.Errorf("%w: size %d at pos %d", ErrCorrupt, sz, pos), false
		}
		payload := append(r.scratch[:0], buf[pos+frameHeader:pos+frameHeader+uint64(sz)]...)
		r.scratch = payload
		for i := pos; i < pos+frameHeader+uint64(sz); i++ {
			buf[i] = 0
		}
		r.head += frameHeader + uint64(sz)
		return payload, nil, true
	}
}

// ReportHead RDMA-Writes the reader's processed pointer to the writer's
// mirror so the writer can reuse the space. Callers batch it (after
// draining) rather than per message.
func (r *Reader) ReportHead(p *sim.Proc) error {
	if r.head == r.reported {
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], r.head)
	if err := r.qp.Write(p, r.mirror, 0, b[:], fabric.WriteOpts{}); err != nil {
		return err
	}
	r.reported = r.head
	return nil
}

// CQ returns the reader-side completion queue on which Write-with-IMM
// arrivals surface (the event channel of event-based fast messaging).
func (r *Reader) CQ() *sim.Queue[fabric.Completion] { return r.qp.CQ() }
