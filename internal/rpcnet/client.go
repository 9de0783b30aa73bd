package rpcnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Method identifies how a search was executed. It, the batch types and
// the status errors below are the vocabulary shared with the simulated
// client (internal/proto).
type Method = proto.Method

// BatchOp is one operation submitted through ExecBatch; BatchResult is its
// outcome, in submission order.
type (
	BatchOp     = proto.BatchOp
	BatchResult = proto.BatchResult
)

// Search methods.
const (
	MethodFast    = proto.MethodFast
	MethodOffload = proto.MethodOffload
	MethodFetch   = proto.MethodFetch
)

// Errors.
var (
	ErrClosed     = errors.New("rpcnet: connection closed")
	ErrServer     = proto.ErrServer
	ErrNotFound   = proto.ErrNotFound
	ErrOverloaded = proto.ErrOverloaded
)

// ClientConfig tunes the real-network client.
type ClientConfig struct {
	// Adaptive runs Algorithm 1; otherwise Forced is used.
	Adaptive bool
	Forced   Method
	// N and T are Algorithm 1's parameters (defaults 8 and 0.95).
	N int
	T float64
	// Fetch arms the 3-way switch's fetch branch (effective only against a
	// server whose hello advertises mailbox slots), taken past the adaptive
	// package's threshold on the heartbeat's predicted TX utilization.
	Fetch bool
	// MultiIssue pipelines chunk reads during offloaded traversal.
	MultiIssue bool
	// MaxRestarts / MaxChunkRetries bound staleness recovery.
	MaxRestarts     int
	MaxChunkRetries int
	// Seed drives the back-off randomness.
	Seed int64
	// NodeCache is the capacity, in nodes, of the client-side
	// version-validated cache of decoded internal nodes (0 disables it).
	// Entries are lease-fresh for one heartbeat interval; past the lease
	// they are revalidated with a version-space READ (an eighth of a
	// chunk) before being trusted. See internal/nodecache.
	NodeCache int

	// MergeSpan is the maximum number of physically-adjacent chunk reads
	// of one multi-issue wave folded into a single READ round trip (its
	// Count) — the TCP analogue of merged adjacent RDMA reads. 0 or 1
	// disables merging: every chunk READ then carries one chunk.
	MergeSpan int

	// Prefetch is the token-bucket capacity for speculative chunk reads
	// during multi-issue traversal (DESIGN.md §5.9); the bucket refills
	// proportionally to the heartbeat-reported idle fraction. 0 disables
	// prefetching.
	Prefetch int

	// Metrics, when non-nil, exposes the client counters, the predicted
	// server utilization, and a search-latency histogram on the registry
	// under catfish_client_* names (a Router hands each per-shard client
	// a shard-labelled view).
	Metrics *telemetry.Registry

	// Trace, when non-nil, receives one telemetry.Trace per search.
	Trace *telemetry.Tracer

	// Shard is the shard index stamped into trace records (a Router sets
	// it; 0 for unsharded clients).
	Shard int

	// Deadline, when positive, stamps every fast-messaging operation with
	// a relative latency budget (microsecond resolution on the wire). An
	// admission-controlled server sheds the operation with ErrOverloaded
	// if it cannot start executing within the budget.
	Deadline time.Duration
}

// Client is a Catfish client over real TCP — one logical stream on a
// (possibly shared) multiplexed connection, and the real-socket adapter of
// the shared client operations (proto.Ops), whose Search, Insert, Delete,
// Move, Nearest, ExecBatch and Promote it promotes. It is safe for use by
// one goroutine at a time (like net.Conn-based request/response clients);
// whoever holds the connection's read token applies asynchronous heartbeats.
// Request ids are stream<<32 | seq, so many clients demultiplex over one
// Mux.
type Client struct {
	proto.Ops[port]
	mx      *Mux
	stream  uint32
	seq     atomic.Uint32
	ownsMux bool // Dial-created: closing the client closes the connection
	hello   wire.Hello

	// u_serv: the latest unconsumed heartbeat (0 = none); heartbeatTX is
	// the TX-utilization word riding the same frame (0 against servers
	// that predate it).
	heartbeat   atomic.Uint64 // float64 bits
	heartbeatTX atomic.Uint64 // float64 bits
	// lastHB is the arrival time of the most recent heartbeat frame (as
	// nanoseconds since c.start; 0 = none yet). Unlike the u_serv word,
	// which Algorithm 1 consumes, arrival time survives reads — it is what
	// liveness tracking wants.
	lastHB atomic.Int64
	start  time.Time

	// Replication words riding the heartbeat (0 against servers that
	// predate them): the shard's epoch, the server's applied sequence, and
	// the version of the shard map it serves. Routers read these to elect
	// failover successors and to notice a resharding's map bump mid-run.
	hbEpoch   atomic.Uint64
	hbApplied atomic.Uint64
	hbMapVer  atomic.Uint64

	// ncache is the version-validated internal-node cache the core's
	// offloaded traversals consult (nil when disabled); rootVer is the
	// heartbeat's root version, which the next traversal applies to it.
	ncache  *nodecache.Cache
	rootVer atomic.Uint64

	// span is how many adjacent chunk reads one READ carries at most (1 =
	// one chunk per READ); reads is the traversal's read queue.
	span  int
	reads readQueue
}

// dialClient connects to a server and performs the hello exchange. The client
// owns its connection; use DialMux + (*Mux).Client (or a MuxPool) to
// share one connection among many logical clients.
func dialClient(addr string, cfg ClientConfig) (*Client, error) {
	m, err := DialMux(addr)
	if err != nil {
		return nil, err
	}
	c, err := m.Client(cfg)
	if err != nil {
		m.Close()
		return nil, err
	}
	c.ownsMux = true
	return c, nil
}

// Client attaches a new logical client to the multiplexed connection,
// allocating it a stream id. Fails with ErrStreamsExhausted once
// 65536 clients are attached (detached ids are reused).
func (m *Mux) Client(cfg ClientConfig) (*Client, error) {
	stream, seq, err := m.allocStream()
	if err != nil {
		return nil, err
	}
	c := &Client{
		mx:     m,
		stream: stream,
		hello:  m.hello,
		start:  time.Now(),
		span:   max(1, min(cfg.MergeSpan, maxSpanChunks)),
		reads:  readQueue{pend: make(map[uint64]readSpan)},
	}
	c.seq.Store(seq)
	hello := m.hello
	inv := time.Duration(hello.HeartbeatMs) * time.Millisecond
	if cfg.NodeCache > 0 {
		versionsSize := int(hello.ChunkSize) / region.CacheLine * region.VersionSize
		c.ncache = nodecache.New(cfg.NodeCache, inv, int(hello.ChunkSize), versionsSize)
	}
	ocfg := proto.OpsConfig{
		Adaptive: cfg.Adaptive,
		Forced:   cfg.Forced,
		Switch: adaptive.Config{
			N:           cfg.N,
			T:           cfg.T,
			Inv:         inv,
			EnableFetch: cfg.Fetch && hello.FetchSlots > 0,
		},
		Rand:       rand.New(rand.NewSource(cfg.Seed + time.Now().UnixNano())),
		Messaging:  MethodFast,
		DeadlineUS: deadlineUS(cfg.Deadline),
		Prefetch:   cfg.Prefetch,
		Tree: proto.Tree{RootChunk: int(hello.RootChunk), NumChunks: int(hello.NumChunks),
			MaxEntries: int(hello.MaxEntries), Kind: hello.Index},
		MultiIssue:      cfg.MultiIssue,
		MergeSpan:       c.span,
		MaxRestarts:     cfg.MaxRestarts,
		MaxChunkRetries: cfg.MaxChunkRetries,
		Cache:           c.ncache,
		Metrics:         cfg.Metrics,
		Trace:           cfg.Trace,
		Shard:           cfg.Shard,
	}
	if hello.FetchSlots > 0 {
		ocfg.Mailbox = proto.Mailbox{
			Chunks:       int(hello.FetchSlots) * int(hello.FetchSlotChunks),
			SlotChunks:   int(hello.FetchSlotChunks),
			ChunkPayload: int(hello.ChunkSize) / region.CacheLine * region.LineData,
		}
	}
	c.Ops = proto.Bind(proto.NewCore(ocfg), port{c})
	if reg := cfg.Metrics; reg != nil {
		// Counted per connection: streams sharing one read the same counts.
		for by, name := range [...]string{readBySelf: "self", readByOther: "other", readByIdle: "idle"} {
			reg.CounterFunc("catfish_client_reply_reads_total", m.replyReads[by].Load, "by", name)
		}
	}
	m.mu.Lock()
	if m.readerr != nil {
		err := m.readerr
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	m.streams[stream] = c
	m.mu.Unlock()
	return c, nil
}

// nextID stamps the next request id: this client's stream in the high 32
// bits, a wrapping per-stream sequence in the low 32.
func (c *Client) nextID() uint64 {
	return uint64(c.stream)<<32 | uint64(c.seq.Add(1))
}

// Close detaches the logical client from its connection (pending calls
// fail with ErrClosed, the stream id returns to the pool) and, when the
// client was created by Dial and owns the connection, closes it.
func (c *Client) Close() error {
	c.mx.detach(c)
	if c.ownsMux {
		return c.mx.Close()
	}
	return nil
}

// noteHeartbeat applies one heartbeat frame to this stream's adaptive
// state (called by the connection's token holder for every attached client).
func (c *Client) noteHeartbeat(hb wire.Heartbeat) {
	c.heartbeat.Store(math.Float64bits(hb.Util))
	c.heartbeatTX.Store(math.Float64bits(hb.TXUtil))
	c.hbEpoch.Store(hb.Epoch)
	c.hbApplied.Store(hb.AppliedSeq)
	c.hbMapVer.Store(hb.MapVersion)
	c.lastHB.Store(int64(time.Since(c.start)))
	c.Counters.HeartbeatsSeen.Inc()
	c.rootVer.Store(hb.RootVer)
}

// Hello returns the server's connection bootstrap info.
func (c *Client) Hello() wire.Hello { return c.hello }

// HeartbeatAge returns the time since the last heartbeat frame arrived,
// and false if none has arrived yet.
func (c *Client) HeartbeatAge() (time.Duration, bool) {
	last := c.lastHB.Load()
	if last == 0 {
		return 0, false
	}
	return time.Since(c.start) - time.Duration(last), true
}

// FetchShardMap retrieves and verifies the server's shard map (the server
// must be part of a sharded deployment).
func (c *Client) FetchShardMap() (*shard.Map, error) {
	m, _, err := c.FetchShardMapFull()
	return m, err
}

// FetchShardMapFull retrieves the server's shard map plus, when the server
// knows it, the per-cell address table — what a router needs to dial a
// shard that appeared mid-run. The addrs slice is nil when the server has
// no address table.
func (c *Client) FetchShardMapFull() (*shard.Map, []string, error) {
	tag := c.nextID()
	d, err := c.call(tag, wire.ShardMapRequest{ID: tag}.Encode(nil))
	if err != nil {
		return nil, nil, err
	}
	defer d.release()
	md, err := wire.DecodeShardMapData(d.msg)
	if err != nil {
		return nil, nil, err
	}
	if md.Status != wire.StatusOK {
		return nil, nil, fmt.Errorf("%w: shard map status %d (server not sharded?)", ErrServer, md.Status)
	}
	m, err := shard.FromParts(md.Version, md.PadX, md.PadY, md.Cells)
	if err != nil {
		return nil, nil, err
	}
	return m, md.Addrs, nil
}

// ReplicaState returns the replication epoch and applied sequence from the
// most recent heartbeat (0, 0 before the first one, or against a server
// without replication).
func (c *Client) ReplicaState() (epoch, applied uint64) {
	return c.hbEpoch.Load(), c.hbApplied.Load()
}

// HeartbeatMapVersion returns the shard-map version the server most
// recently advertised in a heartbeat (0 before the first heartbeat).
func (c *Client) HeartbeatMapVersion() uint64 { return c.hbMapVer.Load() }

// call sends payload and waits for the one reply addressed to id. The
// caller decodes it and then releases it — what the decode returns must
// not alias the message past that point.
func (c *Client) call(id uint64, payload []byte) (delivery, error) {
	w, err := c.mx.await(id)
	if err != nil {
		return delivery{}, err
	}
	defer c.mx.settle(id, w)
	if err := c.mx.send(payload); err != nil {
		return delivery{}, err
	}
	d, ok := w.recv()
	if !ok {
		return delivery{}, ErrClosed
	}
	return d, nil
}

// port is the real-socket proto.Transport: the wall clock, the heartbeat
// words the connection's token holder stores, request frames on the shared
// writer with replies routed back by id, and READ_* round trips as the
// stand-in for one-sided reads.
type port struct{ c *Client }

func (t port) Now() time.Duration { return time.Since(t.c.start) }

func (t port) NextID() uint64 { return t.c.nextID() }

func (t port) Heartbeat() (cpu, tx float64) {
	return math.Float64frombits(t.c.heartbeat.Load()), math.Float64frombits(t.c.heartbeatTX.Load())
}

func (t port) ClearHeartbeat() { t.c.heartbeat.Store(0) }

// Exchange sends one request and folds its reply.
func (t port) Exchange(req wire.Request) (wire.Response, wire.FetchDesc, bool, error) {
	mx := t.c.mx
	w, err := mx.await(req.ID)
	if err != nil {
		return wire.Response{}, wire.FetchDesc{}, false, err
	}
	defer mx.settle(req.ID, w)

	buf := wire.GetBuf()
	*buf = req.Encode((*buf)[:0])
	err = mx.send(*buf)
	wire.PutBuf(buf)
	if err != nil {
		return wire.Response{}, wire.FetchDesc{}, false, err
	}
	return fold(w)
}

// Batch registers every sub-request on one shared waiter before the single
// frame write, so no response can slip past, and collects after the
// overlapped traversals: deliveries queue on the waiter meanwhile (it is
// unbounded, so the connection's token holder never stalls on them).
func (t port) Batch(container []byte, ids []uint64, overlap func(), deliver func(msg []byte) bool) error {
	mx := t.c.mx
	w := getWaiter()
	defer putWaiter(w) // runs after unregisterAll below: no push can be in flight
	err := mx.registerAll(ids, w)
	if err == nil {
		defer mx.unregisterAll(ids)
		err = mx.send(container)
	}
	overlap()
	for done := false; err == nil && !done; {
		d, ok := w.recv()
		if !ok {
			return ErrClosed
		}
		done = deliver(d.msg)
		d.release()
	}
	return err
}

// fold collects one operation's reply from w: its response segments up to
// END, or the mailbox descriptor a *Fetch request may get instead (isDesc).
// Segments are held, still in their frames, until END arrives; then the
// result slice — the caller's to keep — is made at exactly the total size
// and every item is decoded into it once, and the frames go back to the
// pool.
func fold(w *waiter) (resp wire.Response, desc wire.FetchDesc, isDesc bool, err error) {
	var backing [8]delivery
	held := backing[:0]
	total := 0
	for final := false; !final && err == nil; {
		d, ok := w.recv()
		if !ok {
			err = ErrClosed
			break
		}
		held = append(held, d)
		if typ, _ := wire.PeekType(d.msg); typ == wire.MsgFetchDesc {
			desc, err = wire.DecodeFetchDesc(d.msg)
			isDesc, final = true, true
			continue
		}
		var n int
		resp, n, err = wire.PeekResponse(d.msg)
		total, final = total+n, resp.Final
	}
	if err == nil && total > 0 {
		resp.Items = make([]wire.Item, 0, total)
		for _, d := range held {
			// Validated by PeekResponse above; cannot fail or regrow.
			r, _ := wire.DecodeResponseAppend(d.msg, resp.Items)
			resp.Items = r.Items
		}
	}
	for _, d := range held {
		d.release()
	}
	return resp, desc, isDesc, err
}

// ReadMailbox reads the chunks with mailbox-space READs of at most
// maxSpanChunks each.
func (t port) ReadMailbox(chunk int, payloads [][]byte) (torn bool, err error) {
	for at := 0; at < len(payloads); at += maxSpanChunks {
		span := payloads[at:min(at+maxSpanChunks, len(payloads))]
		t.c.Counters.FetchPulls.Add(uint64(len(span)))
		t.c.Counters.ReadWQEs.Inc()
		spanTorn, err := t.c.pullSpan(chunk+at, span)
		if err != nil {
			return false, err
		}
		torn = torn || spanTorn
	}
	return torn, nil
}

// pullSpan reads len(payloads) mailbox chunks starting at chunk in one
// mailbox-space READ and copies each one's validated payload out of
// the reply frame; torn reports a chunk caught mid-write (its entry is left
// as it was).
func (c *Client) pullSpan(chunk int, payloads [][]byte) (torn bool, err error) {
	tag := c.nextID()
	d, err := c.call(tag, wire.Read{ID: tag, Space: wire.SpaceMailbox, Chunk: uint32(chunk), Count: uint32(len(payloads))}.Encode(nil))
	if err != nil {
		return false, err
	}
	defer d.release()
	raw, err := c.rawReply(d.msg, len(payloads))
	if err != nil {
		return false, err
	}
	cs := int(c.hello.ChunkSize)
	for k := range payloads {
		payload, _, derr := region.DecodeChunk(raw[k*cs:(k+1)*cs], nil)
		if derr != nil {
			if errors.Is(derr, region.ErrTornRead) {
				torn = true
				continue
			}
			return false, derr
		}
		payloads[k] = payload
	}
	return torn, nil
}

// AckFetch returns the slot to the server, fire-and-forget: a lost ack only
// delays the slot's reuse.
func (t port) AckFetch(desc wire.FetchDesc, _ int) {
	_ = t.c.mx.send(wire.FetchAck{Slot: desc.Slot, Seq: desc.Seq}.Encode(nil))
}

// readQueue is the socket's stand-in for the completion queue of one-sided
// tree reads: every chunk- or version-space READ of the running traversal
// is registered on one waiter, and replies are handed out one chunk at a
// time as they arrive.
type readQueue struct {
	w *waiter // nil while nothing is outstanding
	// ids are the request ids registered on w since it was taken; pend maps
	// each unanswered one to its reads, posted[at : at+n].
	ids    []uint64
	pend   map[uint64]readSpan
	posted []proto.Read

	// cur is the reply being handed out: run its reads not yet popped, raw
	// their bytes, err what failed all of them. The frame is held until the
	// call after its last chunk's Pop.
	cur delivery
	run []proto.Read
	raw []byte
	err error
}

type readSpan struct{ at, n int }

// release drops the reply frame once every chunk in it has been popped.
func (q *readQueue) release() {
	if q.cur.f != nil && len(q.run) == 0 {
		q.cur.release()
		q.cur = delivery{}
	}
}

// idle returns the waiter once nothing is outstanding (or the connection
// failed): its ids leave the mux's table first, so no push can be in flight.
func (q *readQueue) idle(mx *Mux) {
	mx.unregisterAll(q.ids)
	putWaiter(q.w)
	clear(q.pend)
	q.w, q.ids = nil, q.ids[:0]
}

// tornBackoff is how long Post waits before sending a wave whose most-retried
// read has already come back torn retry times. A loopback re-read returns in
// ≈15 µs, so 64 of them back to back last ≈1 ms — less than a writer
// goroutine pre-empted between two line publications of that chunk stays
// off-CPU, which is how a search ran out of MaxChunkRetries with nothing
// wrong (DESIGN.md §5.17). The first few retries stay immediate, as a torn
// read usually clears within one; from the fourth on the wait doubles from
// 20 µs up to 1 ms, so the default budget spans ≈55 ms.
func tornBackoff(retry int) time.Duration {
	if retry < 4 {
		return 0
	}
	return min(20*time.Microsecond<<min(retry-4, 6), time.Millisecond)
}

// Post sends the wave as one write of READ frames — a version-space one per
// version read, a chunk-space one per run of up to span consecutive
// adjacent chunk reads (Count 1 for a lone one) — with every id registered
// first, so no reply can slip past. The write is all or nothing. A wave
// that re-reads a chunk torn several times over is held back first
// (tornBackoff).
func (t port) Post(wave []proto.Read) (posted, wqes int, err error) {
	c, q := t.c, &t.c.reads
	q.release()
	if q.w == nil && len(q.run) == 0 {
		q.posted = q.posted[:0] // nothing refers to the reads of answered requests any more
	}
	if len(wave) == 0 {
		return 0, 0, nil
	}
	retry := 0
	for _, r := range wave {
		retry = max(retry, r.Retry)
	}
	if wait := tornBackoff(retry); wait > 0 {
		time.Sleep(wait)
	}
	if q.w == nil {
		q.w = getWaiter()
	}
	buf := wire.GetBuf()
	frames := (*buf)[:0]
	base, first := len(q.posted), len(q.ids)
	q.posted = append(q.posted, wave...)
	for at := 0; at < len(wave); wqes++ {
		n, id, space := 1, c.nextID(), wire.SpaceChunks
		if wave[at].Versions {
			space = wire.SpaceVersions
		}
		for space == wire.SpaceChunks && at+n < len(wave) && n < c.span &&
			!wave[at+n].Versions && wave[at+n].Chunk == wave[at].Chunk+n {
			n++
		}
		frames = binary.LittleEndian.AppendUint32(frames, wire.ReadSize)
		frames = wire.Read{ID: id, Space: space, Chunk: uint32(wave[at].Chunk), Count: uint32(n)}.Encode(frames)
		q.ids = append(q.ids, id)
		q.pend[id] = readSpan{at: base + at, n: n}
		at += n
	}
	if err = c.mx.registerAll(q.ids[first:], q.w); err == nil {
		err = c.mx.sendFramed(frames)
	}
	*buf = frames
	wire.PutBuf(buf)
	if err != nil {
		for _, id := range q.ids[first:] {
			delete(q.pend, id)
		}
		if len(q.pend) == 0 {
			q.idle(c.mx)
		}
		return 0, 0, err
	}
	return len(wave), wqes, nil
}

// Pop hands out the next chunk of the reply being demuxed, waiting for the
// next reply frame when that one is used up. A closed connection ends every
// outstanding read.
func (t port) Pop() (proto.Done, error) {
	c, q := t.c, &t.c.reads
	for len(q.run) == 0 {
		q.release()
		if q.w == nil {
			return proto.Done{}, fmt.Errorf("%w: no read outstanding", ErrClosed)
		}
		d, ok := q.w.recv()
		if !ok {
			q.idle(c.mx)
			return proto.Done{}, ErrClosed
		}
		_, id, _ := wire.PeekID(d.msg)
		sp, ok := q.pend[id]
		if !ok {
			d.release() // a second reply to an answered request
			continue
		}
		delete(q.pend, id)
		q.cur, q.run = d, q.posted[sp.at:sp.at+sp.n]
		chunks := sp.n
		if q.run[0].Versions {
			chunks = 0
		}
		q.raw, q.err = c.rawReply(d.msg, chunks)
		if len(q.pend) == 0 {
			q.idle(c.mx)
		}
	}
	r := q.run[0]
	q.run = q.run[1:]
	done := proto.Done{Tag: r.Tag, Data: q.raw, Err: q.err}
	if q.err == nil && !r.Versions {
		cs := int(c.hello.ChunkSize)
		done.Data, q.raw = q.raw[:cs], q.raw[cs:]
	}
	return done, nil
}

// rawReply checks msg as a READ_DATA reply carrying chunks whole chunk
// images (0 = any length) and returns its body: a refusal, the wrong message
// type or the wrong length is an ErrServer-class error.
func (c *Client) rawReply(msg []byte, chunks int) ([]byte, error) {
	_, status, raw, err := wire.DecodeRawReply(msg)
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrServer, err)
	case status != wire.StatusOK:
		return nil, proto.StatusError(status, "one-sided read")
	case chunks > 0 && len(raw) != chunks*int(c.hello.ChunkSize):
		return nil, fmt.Errorf("%w: read of %d chunks answered with %d bytes", ErrServer, chunks, len(raw))
	}
	return raw, nil
}

// Charge is a no-op: a real client spends its traversal CPU, it does not
// model it.
func (t port) Charge() {}

func (t port) RootVersion() uint64 { return t.c.rootVer.Load() }
