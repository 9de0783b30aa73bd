// Connection multiplexing (DESIGN.md §5.12): many logical clients share
// one TCP connection. Each attached Client owns a 32-bit stream id; the
// request ids it stamps into frames are stream<<32 | seq, so the existing
// request-id demultiplexer doubles as the stream demultiplexer and the
// wire format is unchanged.
//
// The connection has no dedicated reader. Its inbound side is a read
// token: a caller waiting for a reply that has not arrived takes the token
// and reads and routes frames — its own and its siblings' — until its own
// is there, then hands the token on, so a lone round trip is sent, read and
// decoded on the caller's goroutine (run to completion, DESIGN.md §5.12).
// A caller that finds the token taken parks until either a delivery or the
// token reaches it. An idle goroutine takes the token only after half a
// heartbeat interval with no caller reading, so heartbeats, EOF and Close
// are still seen on a quiet connection. One coalescing writer serves every
// stream, so 10k clients over 64 connections cost at most 128 connection
// goroutines, not 20k.
//
// Frame delivery uses unbounded per-request queues (waiter) instead of
// blocking channel sends, so one slow logical client can never stall the
// token holder — and with it every other stream (no head-of-line blocking
// across streams).
//
// Inbound frames live in pooled, reference-counted buffers (frameBuf): the
// token holder routes each message by the id in its fixed header and passes
// a reference to the waiter, whose consumer decodes the message once and
// releases it (DESIGN.md §5.14).
package rpcnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/wire"
)

// ErrStreamsExhausted reports that a Mux has no free stream ids left
// (maxStreams logical clients are attached).
var ErrStreamsExhausted = errors.New("rpcnet: stream ids exhausted")

// ErrNoHello reports that a dialed server sent no hello within
// helloTimeout.
var ErrNoHello = errors.New("rpcnet: no hello from server")

// helloTimeout bounds DialMux's wait for the hello. A server sends it as
// soon as it accepts, so a live one answers in microseconds; unbounded, a
// connection the kernel completed while the listener was closing — never
// accepted, never written to — would be ended only by TCP keep-alive,
// ≈15 s later.
const helloTimeout = time.Second

// Mux is one shared TCP connection carrying many logical clients. Attach
// clients with Client; they detach on Close and their stream ids are
// pooled for reuse.
type Mux struct {
	conn  net.Conn
	addr  string
	hello wire.Hello
	w     *connWriter
	// maxStreams caps concurrently-attached logical clients (1<<16); tests
	// lower it to reach exhaustion.
	maxStreams int

	// tok holds the read token while nobody reads; in and hdr belong to
	// whoever has taken it.
	tok chan struct{}
	in  *bufio.Reader
	hdr []byte
	// reads counts tokens taken by callers: the idle reader's sign of life.
	reads atomic.Uint64
	// replyReads counts deliveries by who read them: the waiter's own
	// caller, another caller, or the idle reader.
	replyReads [3]atomic.Uint64

	mu         sync.Mutex
	waiters    map[uint64]*waiter
	streams    map[uint32]*Client
	free       []freeStream
	nextStream uint32
	readerr    error
	closing    chan struct{}
	closeOnce  sync.Once
	done       chan struct{} // the idle reader has exited
}

// Indexes of Mux.replyReads.
const (
	readBySelf = iota
	readByOther
	readByIdle
)

// DialMux connects to a server and performs the hello exchange, returning
// a connection ready for Client attachments.
func DialMux(addr string) (*Mux, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	in := bufio.NewReaderSize(conn, frameReadBuf)
	conn.SetReadDeadline(time.Now().Add(helloTimeout)) //nolint:errcheck // a failed set shows as a failed read
	frame, err := readFrame(in, nil)
	if err != nil {
		conn.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, fmt.Errorf("%w within %v", ErrNoHello, helloTimeout)
		}
		return nil, fmt.Errorf("rpcnet: hello: %w", err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpcnet: hello: %w", err)
	}
	hello, err := wire.DecodeHello(frame)
	if err != nil {
		conn.Close()
		return nil, err
	}
	m := &Mux{
		conn:       conn,
		addr:       addr,
		hello:      hello,
		maxStreams: 1 << 16,
		w:          newConnWriter(conn, nil, nil),
		tok:        make(chan struct{}, 1),
		in:         in,
		hdr:        make([]byte, 4),
		waiters:    make(map[uint64]*waiter),
		streams:    make(map[uint32]*Client),
		closing:    make(chan struct{}),
		done:       make(chan struct{}),
	}
	m.tok <- struct{}{}
	if hb := time.Duration(hello.HeartbeatMs) * time.Millisecond; hb > 0 {
		go m.idleReader(hb / 2)
	} else {
		close(m.done) // nothing arrives unasked; the next caller reads EOF
	}
	return m, nil
}

// Addr returns the dialed address.
func (m *Mux) Addr() string { return m.addr }

// Hello returns the server's connection bootstrap info.
func (m *Mux) Hello() wire.Hello { return m.hello }

// Streams returns the number of currently-attached logical clients.
func (m *Mux) Streams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// Close tears down the connection and every attached client's pending
// calls. A caller blocked reading is unblocked with ErrClosed.
func (m *Mux) Close() error {
	err := m.conn.Close()
	m.fail(net.ErrClosed)
	m.w.close()
	m.closeOnce.Do(func() { close(m.closing) })
	<-m.done
	return err
}

// send writes one frame on the shared writer; sendFramed writes frames
// that carry their length prefixes. A failed write means a dead connection:
// it reports ErrClosed.
func (m *Mux) send(payload []byte) error { return closedErr(m.w.enqueue(payload)) }

func (m *Mux) sendFramed(frames []byte) error { return closedErr(m.w.enqueueFramed(frames, nil)) }

func closedErr(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// await registers a pooled waiter for one request id, failing if the
// connection is already dead. Pair with settle.
func (m *Mux) await(id uint64) (*waiter, error) {
	w := getWaiter()
	w.m = m
	m.mu.Lock()
	if m.readerr != nil {
		err := m.readerr
		m.mu.Unlock()
		putWaiter(w)
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	m.waiters[id] = w
	m.mu.Unlock()
	return w, nil
}

// settle unregisters id and recycles its waiter. Deliveries happen under
// m.mu, so once the id is gone nothing can still be pushing to w.
func (m *Mux) settle(id uint64, w *waiter) {
	m.mu.Lock()
	delete(m.waiters, id)
	m.mu.Unlock()
	putWaiter(w)
}

// registerAll installs one shared waiter for many request ids (batch).
func (m *Mux) registerAll(ids []uint64, w *waiter) error {
	w.m = m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readerr != nil {
		return fmt.Errorf("%w: %v", ErrClosed, m.readerr)
	}
	for _, id := range ids {
		m.waiters[id] = w
	}
	return nil
}

func (m *Mux) unregisterAll(ids []uint64) {
	m.mu.Lock()
	for _, id := range ids {
		delete(m.waiters, id)
	}
	m.mu.Unlock()
}

// freeStream is a detached stream id and the request sequence its last
// owner reached. The next owner carries on from there, so a reply still in
// flight to the old owner — or its late unregistration — can never match a
// request id of the new one.
type freeStream struct{ id, seq uint32 }

// allocStream hands out a free stream id and the sequence to resume it at,
// reusing detached ids before minting new ones.
func (m *Mux) allocStream() (id, seq uint32, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readerr != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrClosed, m.readerr)
	}
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f.id, f.seq, nil
	}
	if int(m.nextStream) >= m.maxStreams {
		return 0, 0, ErrStreamsExhausted
	}
	id = m.nextStream
	m.nextStream++
	return id, 0, nil
}

// detach releases a client's stream: its pending waiters are closed and
// the id returns to the pool.
func (m *Mux) detach(c *Client) {
	m.mu.Lock()
	if _, ok := m.streams[c.stream]; ok {
		delete(m.streams, c.stream)
		m.free = append(m.free, freeStream{c.stream, c.seq.Load()})
	}
	for id, w := range m.waiters {
		if uint32(id>>32) == c.stream {
			w.closeW()
			delete(m.waiters, id)
		}
	}
	m.mu.Unlock()
}

// readFor reads and routes frames, holding the read token, until w has a
// delivery or is closed. A read error fails the connection, w included.
func (m *Mux) readFor(w *waiter) {
	m.reads.Add(1)
	for !w.ready() {
		if !m.readOne(w) {
			w.closeW() // also when w is registered nowhere
			return
		}
	}
}

// readOne reads and routes one frame for self (nil: the idle reader),
// holding the read token. It reports false once the connection has failed.
// Delivery never blocks (waiter queues are unbounded), so a slow consumer
// only grows its own queue.
func (m *Mux) readOne(self *waiter) bool {
	f, err := readPooledFrame(m.in, m.hdr)
	if err != nil {
		m.fail(err)
		return false
	}
	m.route(f, self)
	f.release() // the reader's own reference
	return true
}

// fail records the connection's first error and closes every pending
// waiter; later calls fail at registration.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.readerr == nil {
		m.readerr = err
	}
	for id, w := range m.waiters {
		w.closeW()
		delete(m.waiters, id)
	}
	m.mu.Unlock()
}

// idleReader takes the read token whenever a period passes without a
// caller taking it, and reads one frame: a heartbeat nobody is waiting
// for, or the EOF of a connection the server closed.
func (m *Mux) idleReader(period time.Duration) {
	defer close(m.done)
	tick := time.NewTicker(period)
	defer tick.Stop()
	seen := m.reads.Load()
	for {
		select {
		case <-tick.C:
		case <-m.closing:
			return
		}
		if n := m.reads.Load(); n != seen {
			seen = n
			continue
		}
		select {
		case <-m.tok:
		case <-m.closing:
			return
		}
		ok := m.readOne(nil)
		m.tok <- struct{}{}
		if !ok {
			return
		}
	}
}

// route dispatches one inbound frame on its type byte and, for replies, the
// id in the fixed header — no body is decoded here. A batch container's
// sub-messages are delivered one by one (so segmentation folds per
// operation), each holding its own reference to the shared frame. self is
// the waiter whose caller is reading (nil: the idle reader).
func (m *Mux) route(f *frameBuf, self *waiter) {
	typ, err := wire.PeekType(f.b)
	if err != nil {
		return
	}
	switch typ {
	case wire.MsgHeartbeat:
		if hb, err := wire.DecodeHeartbeat(f.b); err == nil {
			m.mu.Lock()
			for _, c := range m.streams {
				c.noteHeartbeat(hb)
			}
			m.mu.Unlock()
		}
	case wire.MsgBatch:
		it, err := wire.DecodeBatch(f.b)
		if err != nil {
			return
		}
		for {
			msg, ok := it.Next()
			if !ok {
				return
			}
			m.deliver(msg, f, self)
		}
	default:
		m.deliver(f.b, f, self)
	}
}

// deliver passes msg — all or part of frame f — to the waiter registered
// for the id in its header, along with a reference to f. The push happens
// under m.mu so that settle can recycle a waiter the moment its id is
// unregistered. A caller reading for itself needs no wake-up.
func (m *Mux) deliver(msg []byte, f *frameBuf, self *waiter) {
	_, id, err := wire.PeekID(msg)
	if err != nil {
		return
	}
	m.mu.Lock()
	if w, ok := m.waiters[id]; ok {
		f.refs.Add(1)
		by := readByOther
		switch self {
		case w:
			by = readBySelf
		case nil:
			by = readByIdle
		}
		m.replyReads[by].Add(1)
		w.push(delivery{msg: msg, f: f}, w != self)
	}
	m.mu.Unlock()
}

// frameBuf is one pooled inbound frame. Ownership is by reference count:
// the token holder holds one reference while it routes the frame and every
// delivery adds one, so a plain reply has a single consumer and a batch
// container is shared by its sub-messages. Whoever drops the last
// reference returns the buffer to the pool; nobody may touch a message
// after releasing it.
type frameBuf struct {
	b    []byte
	refs atomic.Int32
}

// pooledFrameCap is the least capacity a pooled buffer is made with — one
// chunk-data frame or one full response segment — and maxPooledFrame the
// largest the pool keeps (a 16-chunk span); rarer, larger frames are left
// to the collector so the pool stays small.
const (
	pooledFrameCap = 4096 + 64
	maxPooledFrame = 64 << 10
)

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// poisonFrames makes release overwrite a frame before pooling it. Tests set
// it so that a consumer reading a frame it has already released sees
// garbage (and trips the race detector) instead of plausible stale bytes.
var poisonFrames bool

// readPooledFrame reads one length-prefixed frame into a pooled buffer the
// caller owns one reference to. hdr is 4 bytes of caller scratch.
func readPooledFrame(r io.Reader, hdr []byte) (*frameBuf, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	f := framePool.Get().(*frameBuf)
	if cap(f.b) < n {
		f.b = make([]byte, max(n, pooledFrameCap))
	}
	f.b = f.b[:n]
	f.refs.Store(1)
	if _, err := io.ReadFull(r, f.b); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

func (f *frameBuf) release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	if poisonFrames {
		b := f.b[:cap(f.b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	framePool.Put(f)
}

// delivery is one message handed to a waiter: msg aliases f, and the
// consumer releases it once msg has been decoded.
type delivery struct {
	msg []byte
	f   *frameBuf
}

func (d delivery) release() { d.f.release() }

// waiter is an unbounded delivery queue with channel-like semantics: push
// never blocks (the token holder must not stall on a slow consumer), recv
// blocks until a delivery or close, and a closed drained waiter reports
// !ok like a closed channel. Waiters are pooled: await/settle (or
// getWaiter/putWaiter around registerAll) bracket one call.
type waiter struct {
	mu     sync.Mutex
	queue  []delivery
	head   int // queue[:head] has been received
	closed bool
	sig    chan struct{} // capacity 1: "state changed" doorbell
	m      *Mux          // whose read token recv takes; set on registration
}

var waiterPool = sync.Pool{New: func() any { return &waiter{sig: make(chan struct{}, 1)} }}

func getWaiter() *waiter { return waiterPool.Get().(*waiter) }

// putWaiter recycles a waiter none of whose ids is still registered,
// releasing whatever was delivered but never received.
func putWaiter(w *waiter) {
	for _, d := range w.queue[w.head:] {
		d.release()
	}
	clear(w.queue)
	w.queue, w.head, w.closed, w.m = w.queue[:0], 0, false, nil
	if cap(w.queue) > 64 {
		w.queue = nil // a parked backlog's array is not worth pinning
	}
	select {
	case <-w.sig:
	default:
	}
	waiterPool.Put(w)
}

// push queues d, ringing the doorbell when wake is set (the consumer may
// be parked).
func (w *waiter) push(d delivery, wake bool) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		d.release()
		return
	}
	w.queue = append(w.queue, d)
	w.mu.Unlock()
	if !wake {
		return
	}
	select {
	case w.sig <- struct{}{}:
	default:
	}
}

// ready reports whether recv would return without waiting.
func (w *waiter) ready() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.head < len(w.queue) || w.closed
}

func (w *waiter) closeW() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.sig <- struct{}{}:
	default:
	}
}

// recv pops the next delivery, blocking until one arrives or the waiter
// closes (then ok is false once the queue drains). The caller releases it.
// While it has nothing, it reads for itself whenever it holds its Mux's
// read token, and hands the token on — to a parked caller still waiting,
// if there is one — once its delivery is there.
func (w *waiter) recv() (delivery, bool) {
	for {
		w.mu.Lock()
		if w.head < len(w.queue) {
			d := w.queue[w.head]
			w.queue[w.head] = delivery{}
			w.head++
			if w.head == len(w.queue) {
				// Drained: rewind so the array is reused instead of
				// sliced away one pop at a time.
				w.queue, w.head = w.queue[:0], 0
			}
			w.mu.Unlock()
			return d, true
		}
		if w.closed {
			w.mu.Unlock()
			return delivery{}, false
		}
		w.mu.Unlock()
		select {
		case <-w.sig:
		case <-w.m.tok:
			w.m.readFor(w)
			w.m.tok <- struct{}{}
		}
	}
}

// MuxPool shares a bounded set of multiplexed connections per address:
// Client attachments round-robin over up to maxPerAddr lazily-dialed
// connections, so any number of logical clients stays under the
// connection cap (the C10K deployment shape: 10k clients, ≤64 conns).
type MuxPool struct {
	maxPerAddr int

	mu    sync.Mutex
	muxes map[string][]*Mux
	next  map[string]int
}

// NewMuxPool returns a pool dialing at most maxPerAddr connections per
// server address (<=0 selects 1).
func NewMuxPool(maxPerAddr int) *MuxPool {
	if maxPerAddr <= 0 {
		maxPerAddr = 1
	}
	return &MuxPool{
		maxPerAddr: maxPerAddr,
		muxes:      make(map[string][]*Mux),
		next:       make(map[string]int),
	}
}

// Mux returns the next connection for addr, dialing while under the
// per-address cap and round-robining afterwards.
func (p *MuxPool) Mux(addr string) (*Mux, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ms := p.muxes[addr]
	if len(ms) < p.maxPerAddr {
		m, err := DialMux(addr)
		if err != nil {
			return nil, err
		}
		p.muxes[addr] = append(ms, m)
		return m, nil
	}
	i := p.next[addr] % len(ms)
	p.next[addr] = i + 1
	return ms[i], nil
}

// Conns reports the number of open connections across all addresses.
func (p *MuxPool) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ms := range p.muxes {
		n += len(ms)
	}
	return n
}

// Close closes every pooled connection.
func (p *MuxPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, ms := range p.muxes {
		for _, m := range ms {
			if err := m.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	p.muxes = make(map[string][]*Mux)
	return first
}

// Client attaches a logical client to one of the pool's connections for
// addr. The client does not own the connection; closing it only detaches
// the stream (close the pool to drop the connections).
func (p *MuxPool) Client(addr string, cfg ClientConfig) (*Client, error) {
	m, err := p.Mux(addr)
	if err != nil {
		return nil, err
	}
	return m.Client(cfg)
}

// deadlineUS converts the configured per-request latency budget to the
// wire's microsecond word (relative, so no clock sync is required).
func deadlineUS(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	us := d / time.Microsecond
	if us < 1 {
		us = 1
	}
	if us > 1<<32-1 {
		us = 1<<32 - 1
	}
	return uint32(us)
}
