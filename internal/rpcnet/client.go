package rpcnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
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
	ErrGaveUp     = proto.ErrGaveUp
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
	// server whose hello advertises mailbox slots); TxT is its threshold on
	// the heartbeat's predicted TX utilization (default 0.8).
	Fetch bool
	TxT   float64
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
	// they are revalidated with a READ_VERSIONS round trip (an eighth of
	// a chunk) before being trusted. See internal/nodecache.
	NodeCache int

	// MergeSpan is the maximum number of physically-adjacent chunk reads
	// one multi-issue frontier folds into a single READ_SPAN round trip —
	// the TCP analogue of merged adjacent RDMA reads. 0 or 1 disables
	// merging, leaving the read path identical to per-chunk READ_CHUNK.
	MergeSpan int

	// Prefetch is the token-bucket capacity for speculative span
	// extensions: a span read behind an internal node is stretched past
	// its demand chunks to cover the node's preorder-contiguous children,
	// and the extra raw chunks are kept for the next frontier round. The
	// bucket refills proportionally to the heartbeat-reported idle
	// fraction. 0 disables prefetching.
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
// the connection's reader goroutine handles asynchronous heartbeats.
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

	// ncache is the version-validated internal-node cache (nil when
	// disabled); rootVer tracks the heartbeat's root version so a root
	// rewrite demotes every entry within one heartbeat.
	ncache  *nodecache.Cache
	rootVer atomic.Uint64

	cfg ClientConfig
}

// dialClient connects to a server and performs the hello exchange. The client
// owns its connection; use DialMux + (*Mux).Client (or a MuxPool) to
// share one connection among many logical clients.
func dialClient(addr string, cfg ClientConfig) (*Client, error) {
	m, err := DialMux(addr, MuxConfig{})
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
// MaxStreams clients are attached (detached ids are reused).
func (m *Mux) Client(cfg ClientConfig) (*Client, error) {
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 8
	}
	if cfg.MaxChunkRetries == 0 {
		cfg.MaxChunkRetries = 64
	}
	stream, seq, err := m.allocStream()
	if err != nil {
		return nil, err
	}
	c := &Client{
		mx:     m,
		stream: stream,
		hello:  m.hello,
		start:  time.Now(),
		cfg:    cfg,
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
			TxT:         cfg.TxT,
		},
		Rand:            rand.New(rand.NewSource(cfg.Seed + time.Now().UnixNano())),
		Messaging:       MethodFast,
		DeadlineUS:      deadlineUS(cfg.Deadline),
		Prefetch:        cfg.Prefetch,
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
// state (called by the connection read loop for every attached client).
func (c *Client) noteHeartbeat(hb wire.Heartbeat) {
	c.heartbeat.Store(math.Float64bits(hb.Util))
	c.heartbeatTX.Store(math.Float64bits(hb.TXUtil))
	c.hbEpoch.Store(hb.Epoch)
	c.hbApplied.Store(hb.AppliedSeq)
	c.hbMapVer.Store(hb.MapVersion)
	c.lastHB.Store(int64(time.Since(c.start)))
	c.Counters.HeartbeatsSeen.Inc()
	// A root rewrite demotes every cached node to the revalidation tier
	// within one heartbeat.
	if old := c.rootVer.Swap(hb.RootVer); old != hb.RootVer {
		c.ncache.DemoteAll()
	}
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

// Addr returns the address this client's connection dialed.
func (c *Client) Addr() string { return c.mx.addr }

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
// words the connection's read loop stores, request frames on the shared
// writer with replies routed back by id, and READ_MAILBOX round trips as
// the stand-in for one-sided reads.
type port struct{ c *Client }

func (t port) Now() time.Duration { return time.Since(t.c.start) }

func (t port) NextID() uint64 { return t.c.nextID() }

func (t port) Heartbeat() (cpu, tx float64) {
	return math.Float64frombits(t.c.heartbeat.Load()), math.Float64frombits(t.c.heartbeatTX.Load())
}

func (t port) ClearHeartbeat() { t.c.heartbeat.Store(0) }

func (t port) SearchOffload(q geo.Rect) ([]wire.Item, error) { return t.c.searchOffload(q) }

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
// unbounded, so the connection's read loop never stalls on them).
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

// ReadMailbox reads the chunks with READ_MAILBOX round trips of at most
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
// READ_MAILBOX round trip and copies each one's validated payload out of
// the reply frame; torn reports a chunk caught mid-write (its entry is left
// as it was).
func (c *Client) pullSpan(chunk int, payloads [][]byte) (torn bool, err error) {
	tag := c.nextID()
	d, err := c.call(tag, wire.ReadMailbox{ID: tag, Chunk: uint32(chunk), Count: uint32(len(payloads))}.Encode(nil))
	if err != nil {
		return false, err
	}
	defer d.release()
	sd, err := wire.DecodeSpanData(d.msg)
	if err != nil {
		return false, err
	}
	if sd.Status != wire.StatusOK {
		return false, proto.StatusError(sd.Status, "mailbox read")
	}
	cs := int(c.hello.ChunkSize)
	if len(sd.Raw) != len(payloads)*cs {
		return false, fmt.Errorf("%w: mailbox read short reply", ErrServer)
	}
	for k := range payloads {
		payload, _, derr := region.DecodeChunk(sd.Raw[k*cs:(k+1)*cs], nil)
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

// fetchChunk reads one chunk with version validation and decodes it,
// retrying torn reads. The node cache is consulted first: a lease-fresh
// entry costs zero network, a demoted entry is revalidated with a
// READ_VERSIONS round trip, and only a miss pays for the full chunk.
func (c *Client) fetchChunk(id int, expectLevel int, node *rtree.Node) error {
	if c.ncache != nil {
		if cached, err := c.fetchCached(id, expectLevel, node); cached || err != nil {
			return err
		}
	}
	for retry := 0; retry <= c.cfg.MaxChunkRetries; retry++ {
		c.Counters.NodesFetched.Inc()
		c.Counters.ReadWQEs.Inc()
		tag := c.nextID()
		d, err := c.call(tag, wire.ReadChunk{ID: tag, Chunk: uint32(id)}.Encode(nil))
		if err != nil {
			return err
		}
		cd, err := wire.DecodeChunkData(d.msg)
		if err == nil && cd.Status != wire.StatusOK {
			err = proto.StatusError(cd.Status, "chunk read")
		}
		if err != nil {
			d.release()
			return err
		}
		// DecodeChunk copies the payload out, so the frame's job ends here.
		payload, ver, derr := region.DecodeChunk(cd.Raw, nil)
		d.release()
		if derr != nil {
			if errors.Is(derr, region.ErrTornRead) {
				c.Counters.TornRetries.Inc()
				continue
			}
			return derr
		}
		if err := rtree.DecodeNode(payload, node, int(c.hello.MaxEntries)); err != nil {
			return errStale
		}
		if expectLevel >= 0 && node.Level != expectLevel {
			return errStale
		}
		if c.ncache != nil && !node.IsLeaf() {
			cp := &rtree.Node{
				Level:   node.Level,
				Entries: append([]rtree.Entry(nil), node.Entries...),
			}
			c.ncache.Put(id, cp, ver, time.Since(c.start))
		}
		return nil
	}
	return ErrGaveUp
}

// fetchCached tries to serve chunk id from the node cache, reporting
// whether it did. Cached nodes are copied out: the cached image is shared
// read-only across the multi-issue goroutines.
func (c *Client) fetchCached(id int, expectLevel int, node *rtree.Node) (bool, error) {
	copyOut := func(v any) (bool, error) {
		n := v.(*rtree.Node)
		if expectLevel >= 0 && n.Level != expectLevel {
			c.ncache.Evict(id)
			return false, errStale
		}
		node.Level = n.Level
		node.Entries = append(node.Entries[:0], n.Entries...)
		return true, nil
	}
	switch v, out := c.ncache.Lookup(id, time.Since(c.start)); out {
	case nodecache.Fresh:
		return copyOut(v)
	case nodecache.Verify:
		ver, err := c.fetchVersions(id)
		if err != nil {
			// Transport errors surface; a torn fingerprint just falls
			// back to the full validated fetch.
			if errors.Is(err, region.ErrTornRead) {
				return false, nil
			}
			return false, err
		}
		if v, ok := c.ncache.Confirm(id, ver, time.Since(c.start)); ok {
			return copyOut(v)
		}
	}
	return false, nil
}

// fetchVersions performs a READ_VERSIONS round trip for chunk id and
// returns its version fingerprint.
func (c *Client) fetchVersions(id int) (uint64, error) {
	c.Counters.VersionReads.Inc()
	c.Counters.ReadWQEs.Inc()
	tag := c.nextID()
	d, err := c.call(tag, wire.ReadVersions{ID: tag, Chunk: uint32(id)}.Encode(nil))
	if err != nil {
		return 0, err
	}
	defer d.release()
	vd, err := wire.DecodeVersionData(d.msg)
	if err != nil {
		return 0, err
	}
	if vd.Status != wire.StatusOK {
		return 0, proto.StatusError(vd.Status, "version read")
	}
	return region.DecodeVersions(vd.Versions)
}

var errStale = errors.New("rpcnet: stale node during traversal")

// searchOffload traverses the server tree with chunk reads, restarting on
// structural staleness.
func (c *Client) searchOffload(q geo.Rect) ([]wire.Item, error) {
	for attempt := 0; attempt <= c.cfg.MaxRestarts; attempt++ {
		items, err := c.traverse(q)
		if err == nil {
			return items, nil
		}
		if !errors.Is(err, errStale) {
			return nil, err
		}
		// Conservative: the stale entry's ancestors are unknown, so drop
		// the whole cache before retrying.
		c.ncache.Flush()
		c.Counters.StaleRestarts.Inc()
	}
	return nil, ErrGaveUp
}

type chunkRef struct {
	id        int
	level     int
	contained bool // the query fully contains this subtree's MBR
}

func (c *Client) traverse(q geo.Rect) ([]wire.Item, error) {
	if c.cfg.MultiIssue {
		return c.traverseMulti(q)
	}
	var items []wire.Item
	stack := []chunkRef{{id: int(c.hello.RootChunk), level: -1}}
	var node rtree.Node
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := c.fetchChunk(r.id, r.level, &node); err != nil {
			return nil, err
		}
		if node.IsLeaf() {
			for _, e := range node.Entries {
				if q.Intersects(e.Rect) {
					items = append(items, wire.Item{Rect: e.Rect, Ref: e.Ref})
				}
			}
			continue
		}
		for _, e := range node.Entries {
			if q.Intersects(e.Rect) {
				stack = append(stack, chunkRef{id: int(e.Ref), level: node.Level - 1})
			}
		}
	}
	return items, nil
}

// traverseMulti fetches each BFS frontier concurrently — the real-network
// analogue of §IV-C's multi-issue pipeline (requests for all intersecting
// children are in flight simultaneously over the shared connection).
func (c *Client) traverseMulti(q geo.Rect) ([]wire.Item, error) {
	if c.cfg.MergeSpan > 1 || c.cfg.Prefetch > 0 {
		return c.traverseMultiSpans(q)
	}
	var items []wire.Item
	frontier := []chunkRef{{id: int(c.hello.RootChunk), level: -1}}
	for len(frontier) > 0 {
		nodes := make([]rtree.Node, len(frontier))
		errs := make([]error, len(frontier))
		var wg sync.WaitGroup
		for i, r := range frontier {
			i, r := i, r
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = c.fetchChunk(r.id, r.level, &nodes[i])
			}()
		}
		wg.Wait()
		var next []chunkRef
		for i := range nodes {
			if errs[i] != nil {
				return nil, errs[i]
			}
			n := &nodes[i]
			if n.IsLeaf() {
				for _, e := range n.Entries {
					if q.Intersects(e.Rect) {
						items = append(items, wire.Item{Rect: e.Rect, Ref: e.Ref})
					}
				}
				continue
			}
			for _, e := range n.Entries {
				if q.Intersects(e.Rect) {
					next = append(next, chunkRef{id: int(e.Ref), level: n.Level - 1})
				}
			}
		}
		frontier = next
	}
	return items, nil
}

// spanRun is one contiguous stretch of a multi-issue frontier: demand
// chunks (frontier indices idxs) plus ext speculative chunks extending the
// span past its last demand chunk, all fetched in one READ_SPAN.
type spanRun struct {
	idxs []int  // indices into the frontier, contiguous ascending chunk ids
	ext  int    // speculative chunks appended past the last demand chunk
	spec []byte // raw bytes of those ext chunks, filled after the fetch
}

// traverseMultiSpans is traverseMulti with merged reads and speculative
// span extension — the TCP analogue of the simulated client's coalesced
// doorbell batch (DESIGN.md §5.9). Each frontier round sorts the uncached
// refs by chunk id, folds physically-adjacent ones into spans of at most
// MergeSpan chunks (one round trip each), and — budget permitting —
// stretches a span behind an internal node to cover that node's
// preorder-contiguous children. The extra raw chunks are parked in spare
// and adopted by the next round; leftovers at the end are waste.
func (c *Client) traverseMultiSpans(q geo.Rect) ([]wire.Item, error) {
	span := c.cfg.MergeSpan
	if span < 1 {
		span = 1
	}
	if span > maxSpanChunks {
		span = maxSpanChunks
	}
	spanK := 2
	if span > 1 {
		spanK = span - 1
	}
	numChunks := int(c.hello.NumChunks)
	spare := make(map[int][]byte)
	defer func() {
		for range spare {
			c.Counters.PrefetchWaste.Inc()
		}
	}()
	var items []wire.Item
	frontier := []chunkRef{{id: int(c.hello.RootChunk), level: -1}}
	for len(frontier) > 0 {
		nodes := make([]*rtree.Node, len(frontier))
		// Serve what we can without the network: parked speculative
		// chunks first, then the node cache.
		var fetchIdx []int
		for i, r := range frontier {
			if raw, ok := spare[r.id]; ok {
				delete(spare, r.id)
				if n := c.adoptSpare(r, raw); n != nil {
					nodes[i] = n
					continue
				}
			}
			if c.ncache != nil {
				var n rtree.Node
				cached, err := c.fetchCached(r.id, r.level, &n)
				if err != nil {
					return nil, err
				}
				if cached {
					nodes[i] = &n
					continue
				}
			}
			fetchIdx = append(fetchIdx, i)
		}
		// Group the remaining refs into contiguous runs of ≤ span chunks.
		sort.Slice(fetchIdx, func(a, b int) bool {
			return frontier[fetchIdx[a]].id < frontier[fetchIdx[b]].id
		})
		var runs []*spanRun
		for k := 0; k < len(fetchIdx); {
			j := k + 1
			for j < len(fetchIdx) && j-k < span &&
				frontier[fetchIdx[j]].id == frontier[fetchIdx[j-1]].id+1 {
				j++
			}
			runs = append(runs, &spanRun{idxs: fetchIdx[k:j]})
			k = j
		}
		// Stretch runs that end on an internal node: its children sit at
		// the immediately following chunks (preorder layout), so a few
		// extra chunks on the same round trip pre-pay the next frontier.
		if c.cfg.Prefetch > 0 {
			budget := c.PrefetchBudget()
			spent := 0
			for _, r := range runs {
				if budget <= 0 {
					break
				}
				last := frontier[r.idxs[len(r.idxs)-1]]
				if last.level != -1 && last.level < 1 {
					continue // leaves have no children to prefetch
				}
				// Only stretch behind a subtree the query CONTAINS:
				// every descendant intersects, so the preorder chunks
				// right after it are all wanted. A partially-overlapped
				// child would gamble on which leaves the query clips.
				if !last.contained {
					continue
				}
				ext := spanK
				if ext > budget {
					ext = budget
				}
				if len(r.idxs)+ext > maxSpanChunks {
					ext = maxSpanChunks - len(r.idxs)
				}
				if last.id+ext >= numChunks {
					ext = numChunks - 1 - last.id
				}
				if ext <= 0 {
					continue
				}
				r.ext = ext
				budget -= ext
				spent += ext
				c.Counters.PrefetchIssued.Add(uint64(ext))
			}
			c.SpendPrefetch(spent)
		}
		// Fetch every run concurrently, one round trip per run.
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for ri, r := range runs {
			ri, r := ri, r
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[ri] = c.fetchRun(frontier, r, nodes)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Park the speculative tails for the next round.
		cs := int(c.hello.ChunkSize)
		for _, r := range runs {
			base := frontier[r.idxs[len(r.idxs)-1]].id + 1
			for e := 0; e < r.ext; e++ {
				spare[base+e] = r.spec[e*cs : (e+1)*cs]
			}
		}
		var next []chunkRef
		for i := range nodes {
			n := nodes[i]
			if n.IsLeaf() {
				for _, e := range n.Entries {
					if q.Intersects(e.Rect) {
						items = append(items, wire.Item{Rect: e.Rect, Ref: e.Ref})
					}
				}
				continue
			}
			for _, e := range n.Entries {
				if q.Intersects(e.Rect) {
					next = append(next, chunkRef{id: int(e.Ref), level: n.Level - 1,
						contained: q.Contains(e.Rect)})
				}
			}
		}
		frontier = next
	}
	return items, nil
}

// fetchRun resolves one spanRun. Single-chunk runs with no extension fall
// back to the ordinary READ_CHUNK path; everything else is one READ_SPAN
// whose reply is demuxed — and version-validated — per chunk. A torn chunk
// inside the span taints only itself: just that chunk is re-read through
// fetchChunk's retry loop.
func (c *Client) fetchRun(frontier []chunkRef, r *spanRun, nodes []*rtree.Node) error {
	if len(r.idxs) == 1 && r.ext == 0 {
		i := r.idxs[0]
		nodes[i] = new(rtree.Node)
		return c.fetchChunk(frontier[i].id, frontier[i].level, nodes[i])
	}
	total := len(r.idxs) + r.ext
	first := frontier[r.idxs[0]].id
	c.Counters.ReadWQEs.Inc()
	c.Counters.NodesFetched.Add(uint64(len(r.idxs)))
	tag := c.nextID()
	d, err := c.call(tag, wire.ReadSpan{ID: tag, Chunk: uint32(first), Count: uint32(total)}.Encode(nil))
	if err != nil {
		return err
	}
	defer d.release()
	sd, err := wire.DecodeSpanData(d.msg)
	if err != nil {
		return err
	}
	if sd.Status != wire.StatusOK {
		return proto.StatusError(sd.Status, "span read")
	}
	cs := int(c.hello.ChunkSize)
	if len(sd.Raw) != total*cs {
		return fmt.Errorf("%w: span %d+%d short reply", ErrServer, first, total)
	}
	for k, i := range r.idxs {
		ref := frontier[i]
		nodes[i] = new(rtree.Node)
		if err := c.decodeSpanChunk(ref, sd.Raw[k*cs:(k+1)*cs], nodes[i]); err != nil {
			return err
		}
	}
	if r.ext > 0 {
		// The speculative tail outlives the frame: it is parked until the
		// next frontier round adopts it.
		r.spec = append([]byte(nil), sd.Raw[len(r.idxs)*cs:]...)
	}
	return nil
}

// decodeSpanChunk validates and decodes one demand chunk out of a span
// reply, retrying through the single-chunk path if the image was torn.
func (c *Client) decodeSpanChunk(ref chunkRef, raw []byte, node *rtree.Node) error {
	payload, ver, derr := region.DecodeChunk(raw, nil)
	if derr != nil {
		if errors.Is(derr, region.ErrTornRead) {
			c.Counters.TornRetries.Inc()
			return c.fetchChunk(ref.id, ref.level, node)
		}
		return derr
	}
	if err := rtree.DecodeNode(payload, node, int(c.hello.MaxEntries)); err != nil {
		return errStale
	}
	if ref.level >= 0 && node.Level != ref.level {
		return errStale
	}
	if c.ncache != nil && !node.IsLeaf() {
		cp := &rtree.Node{
			Level:   node.Level,
			Entries: append([]rtree.Entry(nil), node.Entries...),
		}
		c.ncache.Put(ref.id, cp, ver, time.Since(c.start))
	}
	return nil
}

// adoptSpare tries to turn a parked speculative chunk into this frontier
// ref's node. Any mismatch (torn image, garbage, wrong level) silently
// falls back to a normal fetch and counts as waste — speculation must
// never fail a search.
func (c *Client) adoptSpare(ref chunkRef, raw []byte) *rtree.Node {
	payload, ver, derr := region.DecodeChunk(raw, nil)
	if derr != nil {
		c.Counters.PrefetchWaste.Inc()
		return nil
	}
	var n rtree.Node
	if err := rtree.DecodeNode(payload, &n, int(c.hello.MaxEntries)); err != nil {
		c.Counters.PrefetchWaste.Inc()
		return nil
	}
	if ref.level >= 0 && n.Level != ref.level {
		c.Counters.PrefetchWaste.Inc()
		return nil
	}
	c.Counters.PrefetchHits.Inc()
	if c.ncache != nil && !n.IsLeaf() {
		cp := &rtree.Node{Level: n.Level, Entries: append([]rtree.Entry(nil), n.Entries...)}
		c.ncache.Put(ref.id, cp, ver, time.Since(c.start))
	}
	return &n
}
