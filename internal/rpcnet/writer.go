package rpcnet

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrWriterFull reports a non-blocking enqueue against a full writer.
var ErrWriterFull = errors.New("rpcnet: connection writer full")

// writeBuffer bounds the bytes a connWriter may hold before enqueuers
// block (per-connection backpressure).
const writeBuffer = 1 << 20

// connWriter is a bounded per-connection writer with coalesced flushes:
// producers append length-prefixed frames to a pending buffer and a single
// flusher goroutine writes the accumulated bytes with one net.Conn.Write
// per wakeup, so N queued responses cost one syscall instead of N. The
// bound gives lossless backpressure — enqueue blocks when the peer reads
// slower than the server produces — while tryEnqueue (used by heartbeat
// broadcast) drops instead of blocking.
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

type connWriter struct {
	c    net.Conn
	tx   *atomic.Uint64 // server/client-wide outbound byte counter (nil ok)
	pace *txPacer       // shared outbound budget (nil = unpaced)

	mu       sync.Mutex
	nonEmpty sync.Cond // signals the flusher
	notFull  sync.Cond // signals blocked enqueuers
	pending  []byte    // length-prefixed frames not yet written
	spare    []byte    // recycled flush buffer
	err      error     // sticky first write error
	closed   bool
	done     chan struct{}
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

// enqueue appends one frame, blocking while the buffer is over its bound.
// It returns the writer's sticky error once the connection has failed.
func (w *connWriter) enqueue(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitRoomLocked()
	return w.appendLocked(payload, true)
}

// enqueueFramed appends frames that already carry their length prefixes —
// every segment of a response, every container of a batch reply — under one
// lock acquisition and one flusher wake-up, so they normally leave in one
// write. Blocks like enqueue.
func (w *connWriter) enqueueFramed(frames []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitRoomLocked()
	return w.appendLocked(frames, false)
}

// tryEnqueue appends one frame without blocking; a full buffer drops the
// frame (best-effort senders like the heartbeat broadcast tolerate loss).
func (w *connWriter) tryEnqueue(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) >= writeBuffer {
		return ErrWriterFull
	}
	return w.appendLocked(payload, true)
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
	w.nonEmpty.Signal()
	return nil
}

func (w *connWriter) flushLoop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.pending) == 0 && !w.closed && w.err == nil {
			w.nonEmpty.Wait()
		}
		if w.err != nil || (w.closed && len(w.pending) == 0) {
			w.mu.Unlock()
			return
		}
		// Swap the pending buffer out and write it unlocked, so producers
		// keep queueing into the spare while the kernel drains this one.
		buf := w.pending
		w.pending = w.spare[:0]
		w.notFull.Broadcast()
		w.mu.Unlock()

		start := time.Now()
		budget := w.pace.reserve(len(buf))
		_, err := w.c.Write(buf)
		if err == nil {
			if slack := budget - time.Since(start); slack > 0 {
				time.Sleep(slack)
			}
		}
		w.mu.Lock()
		w.spare = buf[:0]
		if err != nil && w.err == nil {
			w.err = err
			w.notFull.Broadcast()
		}
		w.mu.Unlock()
		if err != nil {
			return
		}
	}
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
