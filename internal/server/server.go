// Package server implements the Catfish server on the simulated fabric.
//
// The server owns the index — the R*-tree, or the B+-tree key-value store
// of internal/kv, either stored in the RDMA-registered region and run by the
// one server core, proto.Serve — and serves three kinds of traffic:
//
//   - fast-messaging requests arriving in per-connection ring buffers via
//     RDMA Write, processed by a worker thread per connection and answered
//     with RDMA Writes into the client's response ring (§III-A);
//   - one-sided RDMA Reads against the region, which bypass the server CPU
//     entirely (§III-B) — the server's only involvement is publishing node
//     writes with bumped cacheline versions;
//   - kernel-TCP requests for the socket baselines (§V).
//
// Worker threads run in one of two notification modes (§IV-B): event-based
// (block on the completion-queue event channel, yielding the CPU — modelled
// by a processor-sharing CPU) or polling-based (burn cycles watching the
// ring — modelled by a round-robin polling CPU whose idle threads tax their
// core-mates). A heartbeat process publishes the server's windowed CPU
// utilization to every client's heartbeat mailbox each interval (§IV-A).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/ringbuf"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Mode selects the worker notification mechanism.
type Mode int

// Server modes.
const (
	// ModeEvent is event-based fast messaging: workers block on the CQ
	// event channel and the CPU is work-conserving.
	ModeEvent Mode = iota + 1
	// ModePolling is the FaRM-baseline polling design: workers busy-poll
	// their rings, paying the oversubscription tax of Fig 7.
	ModePolling
)

// Config configures a Server.
type Config struct {
	Engine *sim.Engine
	Host   *fabric.Host // server host; its CPU serves event-mode work
	// Tree is the served index: an *rtree.Tree, or a B+-tree store
	// (kv.Store).
	Tree proto.Store
	Cost netmodel.CostModel
	Mode Mode
	// PollCPU must be set in ModePolling.
	PollCPU *sim.PollCPU
	// HeartbeatInterval is the heartbeat period (paper: 10 ms). Zero
	// disables heartbeats (the baselines don't use them).
	HeartbeatInterval time.Duration
	// RingSize is the per-direction ring-buffer size (paper: 256 KB).
	RingSize int
	// StagedNodeWrites publishes tree node writes across a virtual-time
	// window (one cacheline half at a time) so concurrent RDMA readers
	// can observe genuinely torn reads. The window is PerNodeWrite long.
	StagedNodeWrites bool
	// MaxSegmentItems caps result items per response segment (CONT/END
	// framing); 0 selects a segment of ~4 KB.
	MaxSegmentItems int

	// FetchSlots > 0 enables the RFP-style fetch access method: the server
	// registers a dedicated mailbox region of FetchSlots result slots and
	// answers MsgSearchFetch requests with (slot, length, version)
	// descriptors instead of streaming the items back (PAPERS.md,
	// arXiv:1512.07805). Zero disables fetch; MsgSearchFetch then degrades
	// to inline delivery.
	FetchSlots int
	// FetchSlotChunks is the chunks per mailbox slot (0 selects 64, which
	// holds ~5600 result items at the default 4 KB chunk geometry).
	FetchSlotChunks int
	// FetchInlineMax is the result count at or below which a fetch search
	// falls back to inline delivery — small results are cheaper to send
	// than to pull (0 selects MaxSegmentItems: anything fitting one
	// response segment stays inline).
	FetchInlineMax int

	// Replica, when non-nil, arms the availability subsystem on this
	// server: epoch fencing, op-log sequencing, and rejection of client
	// writes while the state says backup (StatusNotPrimary). Nil leaves
	// every path bit-for-bit identical to an unreplicated server. Backups
	// to ship to are attached to Replication.
	Replica *replica.State
}

// Stats is a snapshot of the server counters — the shared set the request
// core keeps for both transports, plus Heartbeat.
type Stats = telemetry.ServerSnapshot

// Server is the Catfish server.
type Server struct {
	cfg   Config
	e     *sim.Engine
	tree  proto.Store
	latch *sim.RWLock
	conns []*conn
	// core executes every request (proto.Serve): this file is the sim's
	// transport, clock and cost model around it.
	core *proto.Serve[port]

	regionMem  *fabric.RegionMemory
	regionVers *fabric.RegionVersions
	publishP   *sim.Proc // process context for staged publishes

	// mailboxMem registers the core's fetch mailbox region for one-sided
	// pulls (nil when FetchSlots is zero).
	mailboxMem *fabric.RegionMemory

	// repl is the replication core (nil without Replica); shipP is the proc
	// its exchanges run on, the one holding the exclusive latch.
	repl  *replica.Primary
	shipP *sim.Proc

	hbSeq     uint64 // heartbeat sequence number (mailbox word 2)
	hbPaused  atomic.Bool
	hbTXBytes uint64        // send-engine bytes at the previous heartbeat
	hbTXTime  time.Duration // virtual time of the previous heartbeat
}

// conn is the server side of one client connection.
type conn struct {
	id         int
	reqReader  *ringbuf.Reader
	respWriter *ringbuf.Writer
	hbMem      *fabric.Memory // on the client host
	thread     *sim.PollThread
	tcp        *fabric.TCPConn

	// limit caps one batch reply container: 16 KB, or less on a small ring.
	limit int
	// demand is the CPU service the operations of the request in hand have
	// been accounted so far, owed says there is a charge to make; the worker
	// pays it once, on Reply (one worker per conn, so no locking).
	demand time.Duration
	owed   bool
}

// Endpoint is what a client needs to talk to the server; returned by
// Connect. Fields are consumed by internal/client.
type Endpoint struct {
	ConnID     int
	ReqWriter  *ringbuf.Writer // client -> server requests
	RespReader *ringbuf.Reader // server -> client responses
	DataQP     *fabric.QP      // client endpoint for one-sided reads
	RegionMem  *fabric.RegionMemory
	RegionVers *fabric.RegionVersions // version-only view for cache revalidation
	HeartbeatM *fabric.Memory         // client-local heartbeat mailbox
	RootChunk  int
	ChunkSize  int
	MaxEntries int
	Index      wire.IndexKind  // which walk reads the region
	TCP        *fabric.TCPConn // client endpoint (TCP mode only)

	// Fetch access method (nil/0 when the server has no mailbox): the
	// mailbox region for one-sided result pulls, a dedicated QP so pull
	// completions never interleave with traversal reads, and the slot
	// geometry locating slot i at chunk i×FetchSlotChunks.
	MailboxMem      *fabric.RegionMemory
	FetchQP         *fabric.QP
	FetchSlotChunks int
}

// New creates a server and installs its staged-write publisher when
// configured. The tree must have been created against the same region that
// clients will read.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Host == nil || cfg.Tree == nil {
		return nil, errors.New("server: Engine, Host and Tree are required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeEvent
	}
	if cfg.Mode == ModePolling && cfg.PollCPU == nil {
		return nil, errors.New("server: ModePolling requires PollCPU")
	}
	if cfg.Mode == ModeEvent && cfg.Host.CPU() == nil {
		return nil, errors.New("server: ModeEvent requires a host CPU")
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 256 << 10
	}
	var repl *replica.Primary
	if cfg.Replica != nil {
		repl = replica.NewPrimary(cfg.Replica)
	}
	core, err := proto.NewServe[port](proto.ServeConfig{
		Tree:            cfg.Tree,
		Replica:         repl,
		MaxSegmentItems: cfg.MaxSegmentItems,
		FetchSlots:      cfg.FetchSlots,
		FetchSlotChunks: cfg.FetchSlotChunks,
		FetchInlineMax:  cfg.FetchInlineMax,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		e:     cfg.Engine,
		tree:  cfg.Tree,
		latch: sim.NewRWLock(cfg.Engine),
		core:  core,
		repl:  repl,
	}
	s.regionMem = cfg.Host.RegisterRegion(cfg.Tree.Region())
	s.regionVers = cfg.Host.RegisterRegionVersions(cfg.Tree.Region())
	if _, mreg := core.Mailbox(); mreg != nil {
		s.mailboxMem = cfg.Host.RegisterRegion(mreg)
	}
	if cfg.StagedNodeWrites {
		cfg.Tree.SetPublisher(s.stagedPublish)
	}
	if cfg.HeartbeatInterval > 0 {
		s.e.Spawn("server-heartbeat", s.heartbeatLoop)
	}
	return s, nil
}

// Stats returns a snapshot of the server counters, safe to call while the
// simulation runs.
func (s *Server) Stats() Stats { return s.core.Counters.Snapshot() }

// Utilization returns the CPU and send-engine utilizations the heartbeat
// loop last published (zero without heartbeats).
func (s *Server) Utilization() (cpu, tx float64) {
	return s.core.Counters.Util.Load(), s.core.Counters.TXUtil.Load()
}

// Mailbox exposes the fetch mailbox (nil when fetch is disabled) for
// instrumentation.
func (s *Server) Mailbox() *region.Mailbox {
	mb, _ := s.core.Mailbox()
	return mb
}

// Tree returns the served index (the harness pre-loads it).
func (s *Server) Tree() proto.Store { return s.tree }

// Connect establishes an RDMA connection from clientHost: two ring buffers
// (requests, responses), a data QP for one-sided reads with the given send
// queue depth, and a heartbeat mailbox. A worker process is spawned to
// serve the connection.
func (s *Server) Connect(clientHost *fabric.Host, net *fabric.Network, dataSQDepth int) (*Endpoint, error) {
	id := len(s.conns)
	reqW, reqR, err := buildRing(net, clientHost, s.cfg.Host, s.cfg.RingSize)
	if err != nil {
		return nil, fmt.Errorf("server: request ring: %w", err)
	}
	respW, respR, err := buildRing(net, s.cfg.Host, clientHost, s.cfg.RingSize)
	if err != nil {
		return nil, fmt.Errorf("server: response ring: %w", err)
	}
	dataQP, _ := net.ConnectQP(clientHost, s.cfg.Host, dataSQDepth)
	hbMem := clientHost.RegisterMemory(HeartbeatMailboxSize)

	c := &conn{id: id, reqReader: reqR, respWriter: respW, hbMem: hbMem,
		limit: min(proto.BatchFrameLimit, respW.MaxPayload())}
	if s.cfg.Mode == ModePolling {
		c.thread = s.cfg.PollCPU.Register()
	}
	s.conns = append(s.conns, c)
	s.e.Spawn(fmt.Sprintf("server-worker-%d", id), func(p *sim.Proc) {
		s.serveRDMA(p, c)
	})
	ep := &Endpoint{
		ConnID:     id,
		ReqWriter:  reqW,
		RespReader: respR,
		DataQP:     dataQP,
		RegionMem:  s.regionMem,
		RegionVers: s.regionVers,
		HeartbeatM: hbMem,
		RootChunk:  s.tree.RootChunk(),
		ChunkSize:  s.tree.Region().ChunkSize(),
		MaxEntries: s.tree.MaxEntries(),
		Index:      s.tree.Kind(),
	}
	if s.mailboxMem != nil {
		fetchQP, _ := net.ConnectQP(clientHost, s.cfg.Host, dataSQDepth)
		ep.MailboxMem = s.mailboxMem
		ep.FetchQP = fetchQP
		ep.FetchSlotChunks = s.Mailbox().SlotChunks()
	}
	return ep, nil
}

// ConnectTCP establishes a kernel-TCP connection and spawns its worker.
func (s *Server) ConnectTCP(clientHost *fabric.Host, net *fabric.Network) (*Endpoint, error) {
	id := len(s.conns)
	cEnd, sEnd := net.DialTCP(clientHost, s.cfg.Host)
	// TCP clients get a heartbeat mailbox too (needed for shard liveness
	// tracking); with no QP to write through, the heartbeat loop fills it
	// directly, modeling an out-of-band datagram.
	hbMem := clientHost.RegisterMemory(HeartbeatMailboxSize)
	c := &conn{id: id, tcp: sEnd, hbMem: hbMem, limit: proto.BatchFrameLimit}
	if s.cfg.Mode == ModePolling {
		return nil, errors.New("server: TCP workers are always event-based (blocking recv)")
	}
	s.conns = append(s.conns, c)
	s.e.Spawn(fmt.Sprintf("server-tcp-worker-%d", id), func(p *sim.Proc) {
		s.serveTCP(p, c)
	})
	return &Endpoint{ConnID: id, TCP: cEnd, HeartbeatM: hbMem}, nil
}

// buildRing creates a ring carrying data from -> to over a fresh QP pair.
func buildRing(net *fabric.Network, from, to *fabric.Host, size int) (*ringbuf.Writer, *ringbuf.Reader, error) {
	wqp, rqp := net.ConnectQP(from, to, 0)
	return ringbuf.New(wqp, rqp, size)
}

// serveRDMA is the per-connection worker loop. In both modes it sleeps on
// the CQ (costless in simulation); the difference is how request processing
// is charged (port.Reply).
func (s *Server) serveRDMA(p *sim.Proc, c *conn) {
	for {
		c.reqReader.CQ().Pop(p)
		for {
			payload, err, ok := c.reqReader.TryRecv()
			if err != nil {
				panic(fmt.Sprintf("server: ring corrupt on conn %d: %v", c.id, err))
			}
			if !ok {
				break
			}
			s.dispatch(p, c, payload)
		}
		if err := c.reqReader.ReportHead(p); err != nil {
			panic(fmt.Sprintf("server: head report failed: %v", err))
		}
	}
}

// serveTCP is the blocking-recv TCP worker loop.
func (s *Server) serveTCP(p *sim.Proc, c *conn) {
	for {
		s.dispatch(p, c, c.tcp.Recv(p))
	}
}

// dispatch routes one incoming message to the request core: a batch
// container, a fire-and-forget slot release, or a single request. A request
// that does not decode is answered with an error under id 0.
func (s *Server) dispatch(p *sim.Proc, c *conn, payload []byte) {
	x := port{s: s, p: p, c: c}
	typ, _ := wire.PeekType(payload)
	switch typ {
	case wire.MsgBatch:
		s.core.Batch(x, payload, c.limit) //nolint:errcheck // port.Reply never fails
	case wire.MsgFetchAck:
		if ack, err := wire.DecodeFetchAck(payload); err == nil {
			s.core.Reclaim(ack)
		}
	default:
		if req, err := wire.DecodeRequest(payload); err != nil {
			s.core.Status(x, 0, wire.StatusError) //nolint:errcheck
		} else {
			s.core.Request(x, req) //nolint:errcheck
		}
	}
}

// port is the sim's proto.Exec: the server, the worker process executing
// the request, and the connection it arrived on (nil for a replicated
// batch).
type port struct {
	s *Server
	p *sim.Proc
	c *conn
}

func (x port) RLock()   { x.s.latch.RLock(x.p) }
func (x port) RUnlock() { x.s.latch.RUnlock() }
func (x port) Lock()    { x.s.latch.Lock(x.p) }
func (x port) Unlock()  { x.s.latch.Unlock() }

// Insert runs the insert; when StagedNodeWrites is on, each node publish is
// spread over the PerNodeWrite window via a staged region write, opening a
// real torn-read window for concurrent one-sided readers. Deletes stay
// atomic.
func (x port) Insert(r geo.Rect, ref uint64) (rtree.OpStats, error) {
	if x.s.cfg.StagedNodeWrites {
		x.s.publishP = x.p
		defer func() { x.s.publishP = nil }()
	}
	return x.s.tree.Insert(r, ref)
}

// Propagate hands one applied mutation to the replication core, which
// ships it to the backups on this proc. The exclusive latch is held, so
// sequence order matches apply order. A nil Replica makes this a no-op,
// keeping unreplicated deployments untouched.
func (x port) Propagate(op wire.MsgType, r geo.Rect, ref uint64) uint8 {
	if x.s.repl == nil {
		return wire.StatusOK
	}
	x.s.shipP = x.p
	return replica.StatusOf(x.s.repl.Replicate(op, r, ref))
}

// Account adds one executed operation's CPU demand to the connection's
// bill. Operations past a batch's first pay the amortized fixed cost
// (CostModel.BatchedOpFixed); a mailbox-delivered query pays a memcpy per
// item instead of marshalling it, its reply being a FetchDescSize-byte
// descriptor the client's one-sided pull follows.
func (x port) Account(kind wire.MsgType, i int, st rtree.OpStats, delivered bool) {
	cost := x.s.cfg.Cost
	switch {
	case delivered:
		x.c.demand += cost.FetchDemand(i, st.NodesRead, st.Results)
	case kind == wire.MsgInsert || kind == wire.MsgDelete || kind == wire.MsgMove:
		x.c.demand += cost.InsertDemand(i, st.NodesRead, st.NodesWritten)
	default:
		x.c.demand += cost.SearchDemand(i, st.NodesRead, st.Results)
	}
	x.c.owed = true
}

// Reply pays the bill — one charge for the whole request or batch, after
// the latch has dropped and every delivery is decided, exactly where the
// reply used to be charged — and then writes each frame as one message.
// Event mode runs the demand on the work-conserving CPU; polling mode routes
// it through the connection's polling thread, which adds the scheduling
// phase and per-rotation poll tax of the polling design.
func (x port) Reply(frames []byte) error {
	c := x.c
	if c.owed {
		if x.s.cfg.Mode == ModePolling {
			c.thread.Process(x.p, c.demand)
		} else {
			x.s.cfg.Host.CPU().Run(x.p, c.demand)
		}
		c.demand, c.owed = 0, false
	}
	for len(frames) > 0 {
		n := 4 + int(binary.LittleEndian.Uint32(frames))
		if c.tcp != nil {
			c.tcp.Send(x.p, frames[4:n])
		} else if err := c.respWriter.Send(x.p, frames[4:n], 0, true); err != nil {
			panic(fmt.Sprintf("server: response send failed: %v", err))
		}
		frames = frames[n:]
	}
	return nil
}

// stagedPublish is the tree publisher installed under StagedNodeWrites:
// inside a request it holds the torn window open for the PerNodeWrite cost;
// outside requests (bulk loading) it publishes atomically.
func (s *Server) stagedPublish(chunkID int, payload []byte) error {
	if s.publishP == nil {
		return s.tree.Region().WriteChunkPrefix(chunkID, payload)
	}
	w, err := s.tree.Region().BeginWrite(chunkID, payload)
	if err != nil {
		return err
	}
	s.publishP.Sleep(s.cfg.Cost.PerNodeWrite)
	w.Finish()
	return nil
}

// HeartbeatMailboxSize is the registered per-client heartbeat mailbox:
// word 0 carries the utilization (u_serv), word 1 the root chunk's region
// version, which lets root-caching clients invalidate within one heartbeat
// interval of a root rewrite, word 2 a sequence number incremented per
// heartbeat write so liveness trackers can detect arrivals (Algorithm 1's
// clear-after-read convention zeroes only word 0, and non-adaptive clients
// never clear at all, so the utilization word cannot signal arrival), and
// word 3 the send-engine (TX NIC) utilization feeding the 3-way switch's
// TX predictor.
const HeartbeatMailboxSize = 32

// HeartbeatView is a decoded heartbeat mailbox.
type HeartbeatView struct {
	Util    float64
	RootVer uint64
	Seq     uint64
	TXUtil  float64
}

// DecodeHeartbeatMailbox decodes a heartbeat mailbox image; a short image
// decodes to the zero view ("no heartbeat yet").
func DecodeHeartbeatMailbox(b []byte) HeartbeatView {
	if len(b) < HeartbeatMailboxSize {
		return HeartbeatView{}
	}
	return HeartbeatView{
		Util:    math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		RootVer: binary.LittleEndian.Uint64(b[8:]),
		Seq:     binary.LittleEndian.Uint64(b[16:]),
		TXUtil:  math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

// PauseHeartbeats suspends (true) or resumes (false) heartbeat publication,
// simulating a wedged or partitioned server for liveness tests. The data
// path keeps serving.
func (s *Server) PauseHeartbeats(paused bool) { s.hbPaused.Store(paused) }

// Kill simulates a crashed process: heartbeats freeze and every subsequent
// request — including batches and promote attempts — is answered with
// StatusUnavailable. Requests must still be answered: a silent drop would
// leave the waiting client proc blocked forever and wedge the
// discrete-event engine.
func (s *Server) Kill() { s.core.Kill() }

// SetShard gives the server its place in a sharded deployment: map m, cell
// idx, which proto.Serve's fence then guards.
func (s *Server) SetShard(m proto.Partition, idx int) { s.core.SetShard(m, idx) }

// Split prepares and commits a live split of the server's cell on process
// p (proto.Serve, DESIGN.md §5.11); send mirrors writes to the new server
// on whichever process holds the latch. Drain ends it, on p.
func (s *Server) Split(p *sim.Proc, successor func([]rtree.Entry) (proto.Partition, error),
	send func(p *sim.Proc, ops []proto.BatchOp, res []proto.BatchResult) []proto.BatchResult) error {
	if err := s.core.Prepare(port{s: s, p: p}, successor, func(x port, ops []proto.BatchOp, res []proto.BatchResult) []proto.BatchResult {
		return send(x.p, ops, res)
	}); err != nil {
		return err
	}
	return s.core.Commit()
}

// Drain deletes the peeled entries and disarms the split, on p.
func (s *Server) Drain(p *sim.Proc) error { return s.core.Drain(port{s: s, p: p}) }

// Replication returns the server's replication core (nil without Replica);
// a backup attached to it gets every write the server applies as primary,
// before the write is acknowledged.
func (s *Server) Replication() *replica.Primary { return s.repl }

// Peer returns backup b as this server reaches it: each exchange runs on the
// proc that holds this server's exclusive latch.
func (s *Server) Peer(b *Server) replica.Peer { return peer{from: s, to: b} }

type peer struct{ from, to *Server }

func (pe peer) Exchange(recs []replica.Record) (wire.ReplAck, error) {
	return pe.to.applyReplicated(pe.from.shipP, recs), nil
}

// applyReplicated is a backup's side of one exchange, on the primary's proc
// p: the backup's exclusive latch, the batch through the server core, and —
// still under the latch, in event mode — the CPU charge of a client write
// for each record applied.
func (s *Server) applyReplicated(p *sim.Proc, recs []replica.Record) wire.ReplAck {
	s.latch.Lock(p)
	defer s.latch.Unlock()
	ack, n, st := s.core.ApplyRecords(port{s: s, p: p}, recs)
	if n > 0 && s.cfg.Mode == ModeEvent {
		cost := s.cfg.Cost
		s.cfg.Host.CPU().Run(p, time.Duration(n-1)*cost.InsertFixed+cost.InsertDemand(0, st.NodesRead, st.NodesWritten))
	}
	return ack
}

// heartbeatLoop periodically publishes the CPU utilization to every
// connected client's heartbeat mailbox with an RDMA Write (§IV-A). A
// reported zero would read as "no heartbeat" under Algorithm 1's u_serv≠0
// check, so utilization is floored at a small positive value.
func (s *Server) heartbeatLoop(p *sim.Proc) {
	for {
		p.Sleep(s.cfg.HeartbeatInterval)
		if s.hbPaused.Load() || s.core.Killed() {
			continue
		}
		util := s.utilization()
		if util < 1e-6 {
			util = 1e-6
		}
		s.core.Counters.Util.Set(util)
		txUtil := s.txUtilization()
		s.core.Counters.TXUtil.Set(txUtil)
		var buf [HeartbeatMailboxSize]byte
		putFloat(buf[:8], util)
		rootVer, err := s.tree.Region().Version(s.tree.RootChunk())
		if err == nil {
			binary.LittleEndian.PutUint64(buf[8:], rootVer)
		}
		s.hbSeq++
		binary.LittleEndian.PutUint64(buf[16:], s.hbSeq)
		putFloat(buf[24:], txUtil)
		for _, c := range s.conns {
			if c.hbMem == nil {
				continue
			}
			if c.respWriter == nil {
				// Simulated-TCP endpoint: no QP to write through, so the
				// heartbeat lands in the mailbox directly.
				copy(c.hbMem.Bytes(), buf[:])
			} else if err := c.respWriter.QP().Write(p, c.hbMem, 0, buf[:], fabric.WriteOpts{}); err != nil {
				// One small RDMA Write into the client's mailbox; no notify —
				// the client reads u_serv when it next runs Algorithm 1.
				panic(fmt.Sprintf("server: heartbeat write failed: %v", err))
			}
			s.core.Counters.Heartbeat.Inc()
		}
	}
}

// utilization returns the server's windowed CPU utilization: the PS CPU's
// measured window in event mode, or the pegged 1.0 a polling server's
// /proc/stat would show.
func (s *Server) utilization() float64 {
	if s.cfg.Mode == ModePolling {
		return s.cfg.PollCPU.UtilizationWindow()
	}
	return s.cfg.Host.CPU().UtilizationWindow()
}

// txUtilization returns the send engine's utilization since the previous
// heartbeat: bytes the CPU posted over the interval, as a fraction of line
// rate. One-sided READ responses (responder engine) are deliberately
// excluded — they impose no send-queue pressure, which is exactly why the
// fetch method relieves a send-engine-bound server.
func (s *Server) txUtilization() float64 {
	now := s.e.Now()
	cur := s.cfg.Host.TXBytes()
	elapsed := now - s.hbTXTime
	delta := cur - s.hbTXBytes
	s.hbTXTime, s.hbTXBytes = now, cur
	if elapsed <= 0 {
		return 0
	}
	util := float64(delta) * 8 / (elapsed.Seconds() * s.cfg.Host.LineRateBps())
	if util > 1 {
		util = 1
	}
	return util
}

func putFloat(b []byte, f float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(f))
}
