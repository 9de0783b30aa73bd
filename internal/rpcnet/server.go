// Package rpcnet runs Catfish over real TCP sockets (stdlib net), letting
// the library serve actual processes and machines rather than the simulated
// fabric. The wire protocol is the same as the simulation's; one-sided RDMA
// Reads are emulated by READ requests the server answers directly from the
// registered region they name without taking the tree lock, so the FaRM
// version-check concurrency (§III-B) is exercised under real goroutine
// parallelism: a reader can genuinely race a writer and must retry torn
// chunks.
//
// Framing: every message travels as [length uint32 LE][payload], where
// payload is one internal/wire message.
package rpcnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// MaxFrame bounds a single frame (16 MiB), protecting against corrupt
// length prefixes.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports an over-limit frame length prefix.
var ErrFrameTooLarge = errors.New("rpcnet: frame exceeds limit")

// writeFrame writes one length-prefixed frame. The caller must serialize
// writers per connection.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameBuffered reports whether a whole further frame is already buffered
// in r — a pipelined request the reader would otherwise make wait.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return r.Buffered()-4 >= int(binary.LittleEndian.Uint32(hdr))
}

// frameReadBuf is the size of the one buffered reader on each connection's
// read side: a length prefix and a whole chunk-data frame (pooledFrameCap)
// arrive in one read(2) instead of two. No larger — a C10K server holds one
// per connection — and a body that exceeds it still lands directly in the
// frame's own buffer.
const frameReadBuf = 8 << 10

// readFrame reads one frame, reusing buf when it has capacity. The length
// prefix is read into buf too, so a warmed buffer reads without allocating.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ServerConfig configures a real-network server.
type ServerConfig struct {
	// HeartbeatInterval between utilization pushes (0 disables).
	HeartbeatInterval time.Duration
	// MaxSegmentItems caps items per response segment (0 selects ~4 KB).
	MaxSegmentItems int

	// FetchSlots enables remote result fetching (DESIGN.md §5.10): the
	// server keeps that many mailbox slots in a dedicated region and
	// answers SEARCH_FETCH requests with a descriptor instead of streaming
	// items, the client pulling the slot with mailbox-space READs. 0
	// disables fetch (the hello advertises no mailbox).
	FetchSlots int
	// FetchSlotChunks is the size of one mailbox slot in region chunks
	// (0 selects 64).
	FetchSlotChunks int
	// FetchInlineMax is the result size, in items, at or below which a
	// SEARCH_FETCH is answered inline (0 selects MaxSegmentItems).
	FetchInlineMax int
	// TXLineRateBps is the NIC line rate, in bits per second, used to turn
	// the server's measured outbound byte rate into the heartbeat's
	// TX-utilization word. 0 reports 0 TX utilization (the 3-way switch
	// never picks fetch adaptively; forced fetch still works).
	TXLineRateBps float64

	// AdmissionUtil arms deadline-aware admission control (DESIGN.md
	// §5.12): once the smoothed heartbeat utilization — CPU or TX — meets
	// this threshold, requests queue earliest-deadline-first and the
	// server sheds (typed StatusOverloaded, nothing executed) any request
	// whose deadline expired while queued or that arrives at a full
	// queue. 0 disables shedding on queue pressure; expired deadlines are
	// always shed. Requires heartbeats (the utilization signal).
	AdmissionUtil float64
	// DispatchWorkers bounds how many data requests execute at once — on
	// the shared worker pool, or run to completion on a connection's reader
	// — and sizes the pool (0 = NumCPU, at least 2).
	DispatchWorkers int
	// dispatchQueue bounds the admission queue in tasks (0 selects
	// defaultDispatchQueue); tests shrink it to reach the full-queue shed.
	dispatchQueue int
	// PaceTX, when true, enforces TXLineRateBps as an actual outbound
	// budget: each connection's flusher sleeps out the wire time its bytes
	// would occupy at that rate. Loopback deployments (bench, tests) use
	// it to give every server a real per-server TX capacity, so the
	// TX-utilization gauge the autoscaler scrapes corresponds to a
	// resource that can genuinely saturate.
	PaceTX bool

	// ShardMap and ShardIndex identify this server's place in a sharded
	// deployment: the hello advertises the map version and shard position,
	// and MsgShardMap requests are answered with the full map so routers
	// can bootstrap from any member. Nil runs the server unsharded.
	ShardMap   *shard.Map
	ShardIndex int
	// ShardAddrs optionally lists every shard's client-reachable address,
	// in cell order. It is served with the shard map so routers can dial
	// shards that appear mid-run (live resharding), and it seeds the
	// address table a split extends.
	ShardAddrs []string

	// Replica arms shard replication (DESIGN.md §5.11): a primary streams
	// its op-log to the configured backups before acknowledging writes; a
	// backup validates the stream and rejects client writes until promoted.
	// Nil disables replication entirely.
	Replica *ReplicaConfig

	// Metrics, when non-nil, exposes the server counters, per-op request
	// latency histograms, and the heartbeat utilization on the registry
	// under catfish_server_* / catfish_request_latency_seconds names
	// (catfish-server serves it at -metrics-addr).
	Metrics *telemetry.Registry

	// Trace, when non-nil, receives one telemetry.Trace per fast-messaging
	// search request (adaptive fields zero — the server doesn't see the
	// client's decision state).
	Trace *telemetry.Tracer
}

// Server serves a Catfish index over TCP.
type Server struct {
	cfg  ServerConfig
	tree proto.Store
	ln   net.Listener

	latch sync.RWMutex // the tree latch (writers exclusive)
	// core executes every data request and batch (proto.Serve): this
	// package is the sockets, the dispatcher and the replication around it.
	core *proto.Serve[exec]

	mu     sync.Mutex // guards conns
	conns  map[*srvConn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	disp   *dispatcher
	pacer  *txPacer // shared outbound budget (nil unless PaceTX)

	// overloaded counts the operations admission control shed.
	overloaded atomic.Uint64

	epoch     uint64
	hbPaused  atomic.Bool
	busyNanos atomic.Int64 // request-processing time, for heartbeats
	hbWindow  atomic.Int64 // busyNanos at last heartbeat
	// reads counts the READs per space, refused ones included; readChunks
	// the chunks of those answered OK.
	reads, readChunks [wire.NumSpaces]atomic.Uint64

	// Remote result fetching: the core's mailbox lives in its own region so
	// slot traffic never touches the tree region's allocator. txBytes counts
	// every outbound frame byte (the send-engine analogue the heartbeat's
	// TX word reports); hbTXBytes is its value at the last heartbeat.
	mailbox   *region.Mailbox
	mreg      *region.Region
	txBytes   atomic.Uint64
	hbTXBytes atomic.Uint64

	// offloadEst estimates offloaded searches: every client traversal
	// starts with a chunk READ of the root, so root reads ≈ offloaded
	// searches (root-cache hits aside). rootChunkA mirrors the current root
	// chunk id (refreshed by heartbeatLoop) so the lock-free read path
	// doesn't race tree.RootChunk().
	offloadEst atomic.Uint64
	rootChunkA atomic.Int64

	// lat is catfish_request_latency_seconds{op} by request type and stages
	// catfish_stage_seconds{stage,op} by stage and request type (nil
	// entries — everything, without a registry — record nothing).
	lat    [wire.MsgKNNFetch + 1]*telemetry.Histogram
	stages [numStages][wire.MsgKNNFetch + 1]*telemetry.Histogram
	start  time.Time

	// rtc counts the lone data requests run to completion on their
	// connection's reader (rtcInline) and queued for a worker (rtcQueued).
	rtc [2]atomic.Uint64

	// repl is the replication core (nil = replication disabled); its
	// backups are sockPeers (replica.go).
	repl *replica.Primary
}

// servedShard is the shard map a TCP server's core serves together with
// the address table that map fetches carry, which a live split grows.
type servedShard struct {
	*shard.Map
	addrs []string
}

// servedMap returns the shard map the core serves (nil when unsharded),
// this server's cell in it and the address table.
func (s *Server) servedMap() (*shard.Map, int, []string) {
	m, idx := s.core.Shard()
	ss, _ := m.(servedShard)
	return ss.Map, idx, ss.addrs
}

type srvConn struct {
	c net.Conn
	w *connWriter
	// ready gates the heartbeat broadcast: a connection joins it only
	// once its hello frame is in the writer queue, so a tick between
	// accept and the handshake cannot push a heartbeat ahead of the
	// hello and corrupt the client's first read.
	ready atomic.Bool
}

func (sc *srvConn) send(payload []byte) error { return sc.w.enqueue(payload) }

// close tears the connection down: the net.Conn first (unsticking a
// blocked flush against a dead peer), then the writer. Idempotent.
func (sc *srvConn) close() {
	sc.c.Close()
	sc.w.close()
}

// Listen binds addr and returns a server of tree — an *rtree.Tree, or a
// B+-tree store (kv.Store) — ready to Serve. The tree (and its region) must
// outlive the server; the server becomes the tree's writer.
func Listen(addr string, tree proto.Store, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		tree:  tree,
		ln:    ln,
		conns: make(map[*srvConn]struct{}),
		epoch: uint64(time.Now().UnixNano()),
		start: time.Now(),
	}
	s.rootChunkA.Store(int64(tree.RootChunk()))
	if cfg.Replica != nil {
		s.repl = replica.NewPrimary(replica.NewState(cfg.Replica.Epoch, cfg.Replica.Primary))
		for _, addr := range cfg.Replica.Backups {
			s.repl.Attach(&sockPeer{addr: addr})
		}
	}
	s.core, err = proto.NewServe[exec](proto.ServeConfig{
		Tree:            tree,
		Replica:         s.repl,
		MaxSegmentItems: cfg.MaxSegmentItems,
		FetchSlots:      cfg.FetchSlots,
		FetchSlotChunks: cfg.FetchSlotChunks,
		FetchInlineMax:  cfg.FetchInlineMax,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.mailbox, s.mreg = s.core.Mailbox()
	if cfg.ShardMap != nil {
		s.core.SetShard(servedShard{cfg.ShardMap, cfg.ShardAddrs}, cfg.ShardIndex)
	}
	s.cfg.MaxSegmentItems = s.core.Config().MaxSegmentItems // cfg holds the resolved limit
	if reg := cfg.Metrics; reg != nil {
		s.core.Register(reg)
		reg.CounterFunc("catfish_server_offload_searches_total", s.offloadEst.Load)
		for sp, name := range spaceNames {
			reg.CounterFunc("catfish_server_reads_total", s.reads[sp].Load, "space", name)
			reg.CounterFunc("catfish_server_read_chunks_total", s.readChunks[sp].Load, "space", name)
		}
		for kind, op := range map[wire.MsgType]string{
			wire.MsgSearch: "search", wire.MsgSearchFetch: "search", wire.MsgKNN: "knn", wire.MsgKNNFetch: "knn",
			wire.MsgInsert: "insert", wire.MsgDelete: "delete", wire.MsgMove: "move",
		} {
			s.lat[kind] = reg.Histogram("catfish_request_latency_seconds", "op", op)
			for st, stage := range stageNames {
				s.stages[st][kind] = reg.Histogram("catfish_stage_seconds", "stage", stage, "op", op)
			}
		}
		reg.CounterFunc("catfish_rtc_total", s.rtc[rtcInline].Load, "path", "inline")
		reg.CounterFunc("catfish_rtc_total", s.rtc[rtcQueued].Load, "path", "queued")
		reg.CounterFunc("catfish_server_reshard_moved_total", func() uint64 { _, moved := s.core.Reshard(); return moved })
		reg.GaugeFunc("catfish_server_reshard_state", func() float64 { phase, _ := s.core.Reshard(); return float64(phase) })
		reg.CounterFunc("catfish_server_overloaded_total", s.overloaded.Load)
		reg.GaugeFunc("catfish_server_dispatch_queue", func() float64 {
			return float64(s.disp.depth())
		})
		reg.GaugeFunc("catfish_server_admission_armed", func() float64 {
			if s.admissionArmed() {
				return 1
			}
			return 0
		})
		reg.GaugeFunc("catfish_server_connections", func() float64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return float64(n)
		})
	}
	s.disp = newDispatcher(s, cfg.dispatchQueue, cfg.DispatchWorkers)
	if cfg.PaceTX && cfg.TXLineRateBps > 0 {
		s.pacer = newTXPacer(cfg.TXLineRateBps)
	}
	if cfg.HeartbeatInterval > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until Close. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown).
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		// Register the connection and join the WaitGroup under s.mu
		// BEFORE spawning the reader: a goroutine spawned after Close's
		// sweep would otherwise escape both the connection sweep and
		// wg.Wait (the shutdown leak window).
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		sc := &srvConn{c: conn, w: newConnWriter(conn, &s.txBytes, s.pacer)}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(sc)
	}
}

// Close stops accepting, closes every connection, drains the dispatcher,
// and waits for every server goroutine — readers, writers, workers, the
// heartbeat loop — to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed.Store(true)
	err := s.ln.Close()
	for sc := range s.conns {
		sc.close()
	}
	s.mu.Unlock()
	if s.repl != nil {
		s.repl.Close()
	}
	s.disp.close()
	s.wg.Wait()
	return err
}

// ServerStats is a server counter snapshot: the request core's counters
// (per-kind operation totals, batches, fetch deliveries, promotions,
// replicated records — telemetry.ServerSnapshot) plus what only a socket
// server counts.
type ServerStats struct {
	telemetry.ServerSnapshot
	// Reads counts the READ requests per wire.Space, refused ones
	// included; ReadChunks the chunks of those answered OK (merged adjacent
	// reads plus speculative prefetch extensions make it exceed Reads).
	Reads, ReadChunks [wire.NumSpaces]uint64
	// OffloadSearches estimates client-side traversals from root-chunk
	// reads (every traversal starts at the root; root-cache hits make this
	// a lower bound).
	OffloadSearches uint64
	// TXBytes counts every outbound frame byte the server sent (payload
	// plus length prefixes) — the send-engine signal behind the
	// heartbeat's TX-utilization word.
	TXBytes uint64
	// ReplShipped counts the records streamed to backups as a primary;
	// ReshardMoved the entries streamed off this server by a split.
	ReplShipped  uint64
	ReshardMoved uint64
	// Overloaded counts operations the admission controller shed with
	// StatusOverloaded (never executed).
	Overloaded uint64
}

// Stats returns a snapshot of the op counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		ServerSnapshot:  s.core.Counters.Snapshot(),
		OffloadSearches: s.offloadEst.Load(),
		TXBytes:         s.txBytes.Load(),
		Overloaded:      s.overloaded.Load(),
	}
	_, st.ReshardMoved = s.core.Reshard()
	for sp := range st.Reads {
		st.Reads[sp], st.ReadChunks[sp] = s.reads[sp].Load(), s.readChunks[sp].Load()
	}
	if s.repl != nil {
		st.ReplShipped = s.repl.Shipped()
	}
	return st
}

func (s *Server) serveConn(sc *srvConn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		sc.close()
	}()

	hello := wire.Hello{
		RootChunk:   uint32(s.tree.RootChunk()),
		ChunkSize:   uint32(s.tree.Region().ChunkSize()),
		MaxEntries:  uint32(s.tree.MaxEntries()),
		NumChunks:   uint32(s.tree.Region().NumChunks()),
		HeartbeatMs: uint32(s.cfg.HeartbeatInterval / time.Millisecond),
		ServerEpoch: s.epoch,
		Index:       s.tree.Kind(),
	}
	if m, idx, _ := s.servedMap(); m != nil {
		hello.ShardIndex = uint32(idx)
		hello.ShardCount = uint32(m.K())
		hello.MapVersion = m.Version
	}
	if s.repl != nil {
		hello.ReplicaEpoch, _ = s.repl.State().Snapshot()
	}
	if s.mailbox != nil {
		hello.FetchSlots = uint32(s.mailbox.Slots())
		hello.FetchSlotChunks = uint32(s.mailbox.SlotChunks())
	}
	if err := sc.send(hello.Encode(nil)); err != nil {
		return
	}
	// The hello is in the writer queue; heartbeats enqueued after this
	// point are ordered behind it, so the broadcast may now include us.
	sc.ready.Store(true)

	in := bufio.NewReaderSize(sc.c, frameReadBuf)
	var frame []byte
	var out []byte
	for {
		var err error
		frame, err = readFrame(in, frame)
		if err != nil {
			return // EOF or closed
		}
		typ, err := wire.PeekType(frame)
		if err != nil {
			return
		}
		start := time.Now()
		switch typ {
		case wire.MsgRead:
			// One-sided read emulation: answered from the registered memory
			// without the tree latch — concurrency is resolved by version
			// checks on the client, exactly as over RDMA.
			req, err := wire.DecodeRead(frame)
			if err != nil {
				return
			}
			out = s.read(req, out[:0])
			if err := sc.send(out); err != nil {
				return
			}
		case wire.MsgPromote:
			// Failover promotion stays inline: it must not sit behind a
			// backed-up admission queue while the router is fencing a
			// failed primary.
			req, err := wire.DecodeRequest(frame)
			if err != nil {
				return
			}
			if err := s.core.Request(exec{s: s, sc: sc}, req); err != nil {
				return
			}
		case wire.MsgSearch, wire.MsgInsert, wire.MsgDelete, wire.MsgSearchFetch,
			wire.MsgMove, wire.MsgKNN, wire.MsgKNNFetch:
			// A data operation runs to completion here when the dispatcher
			// is idle and no further request is already buffered behind it;
			// otherwise it is queued. Either way its busy time is accounted
			// where it executes.
			if err := s.disp.run(sc, typ, frame, start, frameBuffered(in)); err != nil {
				return
			}
			continue
		case wire.MsgReplicate:
			if err := s.handleReplicate(sc, frame); err != nil {
				return
			}
		case wire.MsgFetchAck:
			ack, err := wire.DecodeFetchAck(frame)
			if err != nil {
				return
			}
			s.core.Reclaim(ack)
		case wire.MsgBatch:
			if err := s.disp.submit(sc, typ, frame, start); err != nil {
				return
			}
			continue
		case wire.MsgShardMap:
			req, err := wire.DecodeShardMapRequest(frame)
			if err != nil {
				return
			}
			out = s.handleShardMap(req, out[:0])
			if err := sc.send(out); err != nil {
				return
			}
		default:
			return // protocol violation
		}
		s.busyNanos.Add(int64(time.Since(start)))
	}
}

// handleShardMap answers a shard-map fetch with the currently-served map —
// the successor map once a reshard commits — plus the per-cell address
// table when the deployment's addresses are known; an unsharded server
// reports an error status so misdirected routers fail loudly.
func (s *Server) handleShardMap(req wire.ShardMapRequest, out []byte) []byte {
	m, _, addrs := s.servedMap()
	if m == nil || s.core.Killed() {
		return wire.ShardMapData{ID: req.ID, Status: wire.StatusError}.Encode(out)
	}
	md := wire.ShardMapData{
		ID:      req.ID,
		Status:  wire.StatusOK,
		Version: m.Version,
		PadX:    m.PadX,
		PadY:    m.PadY,
		Cells:   m.Cells,
	}
	if len(addrs) == m.K() {
		md.Addrs = addrs
	}
	return md.Encode(out)
}

// Kill makes the server refuse all service: every data request answers
// StatusUnavailable and heartbeats stop, simulating a failed primary while
// keeping the TCP endpoint alive so the failure is observed as a missed
// liveness window rather than a connection reset. Irreversible.
func (s *Server) Kill() { s.core.Kill() }

// spaceNames label catfish_server_reads_total and
// catfish_server_read_chunks_total by wire.Space.
var spaceNames = [wire.NumSpaces]string{"chunks", "versions", "mailbox"}

// maxSpanChunks bounds one READ's Count (a corrupt count would otherwise
// ask the server to reserve Count × chunkSize bytes).
const maxSpanChunks = 64

// read answers a READ with Count consecutive units of the memory it names:
// chunk images of the tree or mailbox region, or the tree's version words.
// It reserves the reply in out and lets the region fill the body in place:
// no staging buffer, no copy, and (out being the connection's reused
// buffer) no allocation per read. A refusal carries no body.
func (s *Server) read(req wire.Read, out []byte) []byte {
	reg := s.tree.Region()
	switch req.Space {
	case wire.SpaceChunks:
		if rc := s.rootChunkA.Load(); int64(req.Chunk) <= rc && rc < int64(req.Chunk)+int64(req.Count) {
			s.offloadEst.Add(1)
		}
	case wire.SpaceVersions:
	case wire.SpaceMailbox:
		reg = s.mreg // nil on a server without a mailbox
	default:
		reg = nil
	}
	if req.Space < wire.NumSpaces {
		s.reads[req.Space].Add(1)
	}
	status := wire.StatusOK
	switch {
	case s.core.Killed():
		status = wire.StatusUnavailable
	case reg == nil || req.Count == 0 || req.Count > maxSpanChunks || int(req.Chunk)+int(req.Count) > reg.NumChunks():
		status = wire.StatusError
	}
	if status != wire.StatusOK {
		msg, _ := wire.AppendRawReply(out, req.ID, status, 0)
		return msg
	}
	versions := req.Space == wire.SpaceVersions
	unit := reg.ChunkSize()
	if versions {
		unit = reg.VersionsSize()
	}
	msg, body := wire.AppendRawReply(out, req.ID, wire.StatusOK, int(req.Count)*unit)
	for i := 0; i < int(req.Count); i++ {
		dst, chunk := body[i*unit:(i+1)*unit], int(req.Chunk)+i
		var err error
		if versions {
			err = reg.ReadVersions(chunk, dst)
		} else {
			err = reg.ReadChunkRaw(chunk, dst)
		}
		if err != nil {
			msg, _ = wire.AppendRawReply(out, req.ID, wire.StatusError, 0)
			return msg
		}
	}
	s.readChunks[req.Space].Add(uint64(req.Count))
	return msg
}

// exec is the TCP server's proto.Exec: the server, the connection the
// request arrived on and, for a request outside a batch, its type and when
// its execution started (batched operations are not timed one by one).
type exec struct {
	s     *Server
	sc    *srvConn
	op    wire.MsgType
	start time.Time
}

func (x exec) RLock()   { x.s.latch.RLock() }
func (x exec) RUnlock() { x.s.latch.RUnlock() }
func (x exec) Lock()    { x.s.latch.Lock() }
func (x exec) Unlock()  { x.s.latch.Unlock() }

func (x exec) Insert(r geo.Rect, ref uint64) (rtree.OpStats, error) { return x.s.tree.Insert(r, ref) }

// Propagate replicates one applied insert or delete to the backups.
func (x exec) Propagate(op wire.MsgType, r geo.Rect, ref uint64) uint8 {
	if x.s.repl == nil {
		return wire.StatusOK
	}
	return replica.StatusOf(x.s.repl.Replicate(op, r, ref))
}

// Account records a lone request's latency — execution start to the latch
// dropping and, for a fetch query, its mailbox write — and traces a search.
func (x exec) Account(kind wire.MsgType, _ int, _ rtree.OpStats, delivered bool) {
	if x.start.IsZero() {
		return
	}
	s, lat := x.s, time.Since(x.start)
	s.lat[kind].Record(lat)
	s.stages[stageExec][kind].Record(lat)
	if s.cfg.Trace != nil && (kind == wire.MsgSearch || kind == wire.MsgSearchFetch) {
		_, idx := s.core.Shard()
		tr := telemetry.Trace{
			Start:   time.Since(s.start) - lat,
			Method:  "fast",
			Shard:   idx,
			Latency: lat,
		}
		if delivered {
			tr.Method = "fetch"
		}
		s.cfg.Trace.Record(tr)
	}
}

// Reply enqueues every frame of the reply at once, so they normally leave
// in one write; a lone request's wait for that write is its send stage.
func (x exec) Reply(frames []byte) error {
	return x.sc.w.enqueueFramed(frames, x.s.stages[stageSend][x.op])
}

// heartbeatLoop pushes the server's busy fraction to every client.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	cores := float64(runtime.NumCPU())
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for range ticker.C {
		if s.closed.Load() {
			return
		}
		if s.hbPaused.Load() || s.core.Killed() {
			// A killed server freezes its heartbeats so routers observe a
			// missed liveness window, exactly like a crashed process.
			continue
		}
		busy := s.busyNanos.Load()
		window := busy - s.hbWindow.Load()
		s.hbWindow.Store(busy)
		util := float64(window) / (float64(s.cfg.HeartbeatInterval) * cores)
		if util > 1 {
			util = 1
		}
		if util < 1e-6 {
			util = 1e-6
		}
		txUtil := 0.0
		if s.cfg.TXLineRateBps > 0 {
			tx := s.txBytes.Load()
			window := tx - s.hbTXBytes.Load()
			s.hbTXBytes.Store(tx)
			txUtil = float64(window) * 8 / (s.cfg.HeartbeatInterval.Seconds() * s.cfg.TXLineRateBps)
			if txUtil > 1 {
				txUtil = 1
			}
		}
		// The gauges hold exponentially-smoothed copies, the one signal the
		// admission controller and the autoscaler read: a single idle (or
		// busy) tick must not flap the armed state, and a single-window
		// sample would make the autoscaler's comparison of shards a coin
		// flip whenever its scrape lands on an idle beat. Heartbeat wire
		// values stay raw — the client's adaptive switch wants the
		// instantaneous signal.
		const alpha = 0.5
		c := &s.core.Counters
		c.Util.Set(alpha*c.Util.Load() + (1-alpha)*util)
		c.TXUtil.Set(alpha*c.TXUtil.Load() + (1-alpha)*txUtil)
		// Heartbeats are the liveness signal: never block them on the
		// latch, which a split's prepare holds exclusively for the whole
		// snapshot-and-stream. Under contention the last published root
		// chunk serves — the tree cannot change while the latch is held.
		rootChunk := int(s.rootChunkA.Load())
		if s.latch.TryRLock() {
			rootChunk = s.tree.RootChunk()
			s.latch.RUnlock()
			s.rootChunkA.Store(int64(rootChunk))
		}
		rootVer, _ := s.tree.Region().Version(rootChunk)
		hb := wire.Heartbeat{Util: util, RootVer: rootVer, TXUtil: txUtil}
		if s.repl != nil {
			hb.Epoch, hb.AppliedSeq = s.repl.State().Snapshot()
		}
		if m, _, _ := s.servedMap(); m != nil {
			hb.MapVersion = m.Version
		}
		payload := hb.Encode(nil)
		s.mu.Lock()
		for sc := range s.conns {
			if !sc.ready.Load() {
				continue // handshake not yet queued
			}
			// Best effort and non-blocking: a connection whose writer is
			// full (slow reader) skips this beat rather than stalling the
			// broadcast for everyone else.
			if sc.w.tryEnqueue(payload) == nil {
				s.core.Counters.Heartbeat.Inc()
			}
		}
		s.mu.Unlock()
	}
}

// admissionArmed reports whether the admission controller currently sheds
// on queue pressure: a threshold is configured and the smoothed heartbeat
// utilization (CPU or TX) has reached it.
func (s *Server) admissionArmed() bool {
	th := s.cfg.AdmissionUtil
	if th <= 0 {
		return false
	}
	return s.core.Counters.Util.Load() >= th || s.core.Counters.TXUtil.Load() >= th
}
