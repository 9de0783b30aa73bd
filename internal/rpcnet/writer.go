package rpcnet

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/telemetry"
)

// ErrWriterFull reports a non-blocking enqueue against a full writer.
var ErrWriterFull = errors.New("rpcnet: connection writer full")

// writeBuffer bounds the bytes a connWriter may hold before enqueuers
// block (per-connection backpressure).
const writeBuffer = 1 << 20

// txPacer is a shared outbound line-rate budget: every flush reserves the
// wire time its bytes would occupy at the configured rate, serializing the
// budget across all connections of one server (a NIC is one line, however
// many sockets share it). Loopback deployments (bench, tests) use it to
// give each server a real, saturable per-server TX capacity.
type txPacer struct {
	bps  float64
	mu   sync.Mutex
	next time.Time // when the modeled line frees up
}

func newTXPacer(bps float64) *txPacer { return &txPacer{bps: bps} }

// reserve books wire time for n bytes and returns how long the caller
// must sleep (from now) for its transmission to complete on the modeled
// line.
func (p *txPacer) reserve(n int) time.Duration {
	if p == nil || p.bps <= 0 {
		return 0
	}
	d := time.Duration(float64(n) * 8 / p.bps * float64(time.Second))
	p.mu.Lock()
	now := time.Now()
	if p.next.Before(now) {
		p.next = now
	}
	p.next = p.next.Add(d)
	sleep := p.next.Sub(now)
	p.mu.Unlock()
	return sleep
}

// connWriter is a bounded per-connection writer. A lone frame is written by
// the goroutine that enqueues it, so an unloaded round trip crosses no
// goroutine; frames that queue behind a write in flight are coalesced, and
// a flusher goroutine writes the accumulated bytes with one net.Conn.Write
// per wakeup, so N queued responses cost one syscall instead of N. Paced
// writers always go through the flusher. The bound gives lossless
// backpressure — enqueue blocks when the peer reads slower than the server
// produces — while tryEnqueue (used by heartbeat broadcast) drops instead
// of blocking.
type connWriter struct {
	c    net.Conn
	tx   *atomic.Uint64 // server/client-wide outbound byte counter (nil ok)
	pace *txPacer       // shared outbound budget (nil = unpaced)

	mu       sync.Mutex
	nonEmpty sync.Cond // signals the flusher
	notFull  sync.Cond // signals blocked enqueuers
	pending  []byte    // length-prefixed frames not yet written
	spare    []byte    // recycled flush buffer
	// stamps are the metered replies in pending: when each was handed over
	// and the histogram its wait until write(2) returns goes to.
	stamps, spareStamps []sendStamp
	// writing is set while a write — the flusher's or an enqueuer's own —
	// is in flight, so two writes never interleave or reorder.
	writing bool
	// inline and flushed count writes made on the enqueuing goroutine and
	// by the flusher.
	inline, flushed uint64
	err             error // sticky first write error
	closed          bool
	done            chan struct{}
}

type sendStamp struct {
	at   time.Time
	sent *telemetry.Histogram
}

// newConnWriter starts the flusher. pace, when non-nil, budgets this
// connection's flushes against the shared line rate.
func newConnWriter(c net.Conn, tx *atomic.Uint64, pace *txPacer) *connWriter {
	w := &connWriter{c: c, tx: tx, pace: pace, done: make(chan struct{})}
	w.nonEmpty.L = &w.mu
	w.notFull.L = &w.mu
	go w.flushLoop()
	return w
}

// enqueue sends one frame, blocking while the buffer is over its bound.
// It returns the writer's sticky error once the connection has failed.
func (w *connWriter) enqueue(payload []byte) error { return w.put(payload, true, nil) }

// enqueueFramed sends frames that already carry their length prefixes —
// every segment of a response, every container of a batch reply — under one
// lock acquisition, so they normally leave in one write. Blocks like
// enqueue. sent, when non-nil, records how long the frames waited from here
// until the write(2) carrying them returned.
func (w *connWriter) enqueueFramed(frames []byte, sent *telemetry.Histogram) error {
	return w.put(frames, false, sent)
}

// put queues b and, when the writer is unpaced, has nothing pending and no
// write in flight, writes it on the calling goroutine (run to completion,
// DESIGN.md §5.12). Otherwise the flusher writes it, coalesced with
// whatever else queues meanwhile.
func (w *connWriter) put(b []byte, prefix bool, sent *telemetry.Histogram) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitRoomLocked()
	idle := len(w.pending) == 0 && !w.writing && w.pace == nil
	if err := w.appendLocked(b, prefix); err != nil {
		return err
	}
	if sent != nil {
		w.stamps = append(w.stamps, sendStamp{at: time.Now(), sent: sent})
	}
	if !idle {
		w.nonEmpty.Signal()
		return nil
	}
	w.inline++
	return w.writeLocked()
}

// tryEnqueue appends one frame without blocking; a full buffer drops the
// frame (best-effort senders like the heartbeat broadcast tolerate loss).
// The flusher always writes it.
func (w *connWriter) tryEnqueue(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) >= writeBuffer {
		return ErrWriterFull
	}
	if err := w.appendLocked(payload, true); err != nil {
		return err
	}
	w.nonEmpty.Signal()
	return nil
}

func (w *connWriter) waitRoomLocked() {
	for len(w.pending) >= writeBuffer && w.err == nil && !w.closed {
		w.notFull.Wait()
	}
}

// appendLocked queues b, behind a length prefix unless b is pre-framed.
// Either way every byte that will reach the socket is counted once.
func (w *connWriter) appendLocked(b []byte, prefix bool) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return net.ErrClosed
	}
	n := len(w.pending)
	if prefix {
		w.pending = binary.LittleEndian.AppendUint32(w.pending, uint32(len(b)))
	}
	w.pending = append(w.pending, b...)
	if w.tx != nil {
		w.tx.Add(uint64(len(w.pending) - n))
	}
	return nil
}

// writeLocked writes everything pending with w.mu released and w.writing
// set: producers keep queueing into the spare buffer while the kernel drains
// this one, and the flusher is woken afterwards for whatever they queued.
func (w *connWriter) writeLocked() error {
	buf, stamps := w.pending, w.stamps
	w.pending, w.stamps = w.spare[:0], w.spareStamps[:0]
	w.writing = true
	w.notFull.Broadcast()
	w.mu.Unlock()

	start := time.Now()
	budget := w.pace.reserve(len(buf))
	_, err := w.c.Write(buf)
	for _, s := range stamps {
		s.sent.Record(time.Since(s.at))
	}
	if err == nil {
		if slack := budget - time.Since(start); slack > 0 {
			time.Sleep(slack)
		}
	}

	w.mu.Lock()
	w.writing = false
	w.spare, w.spareStamps = buf[:0], stamps[:0]
	if err != nil && w.err == nil {
		w.err = err
		w.notFull.Broadcast()
	}
	if len(w.pending) > 0 || w.closed || w.err != nil {
		// Only then: waking an idle flusher after every inline write would
		// cost the hand-off inline writes exist to avoid.
		w.nonEmpty.Signal()
	}
	return err
}

func (w *connWriter) flushLoop() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.err == nil && (w.writing || (len(w.pending) == 0 && !w.closed)) {
			w.nonEmpty.Wait()
		}
		if w.err != nil || len(w.pending) == 0 {
			return // failed, or closed and drained
		}
		w.flushed++
		if w.writeLocked() != nil {
			return
		}
	}
}

// paths returns how many writes were made on an enqueuing goroutine and how
// many by the flusher.
func (w *connWriter) paths() (inline, flushed uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inline, w.flushed
}

// close stops the writer after draining what it can and waits for the
// flusher to exit. Close the net.Conn first when the peer may have
// stopped reading, so a blocked Write is unstuck. Idempotent.
func (w *connWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.nonEmpty.Broadcast()
	w.notFull.Broadcast()
	w.mu.Unlock()
	<-w.done
}
