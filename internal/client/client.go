// Package client is the Catfish client on the simulated fabric: the rings
// fast-messaging requests travel over, the heartbeat mailbox, and the
// post/pop of one-sided RDMA Reads, under the shared client operations of
// internal/proto — Algorithm 1's adaptive back-off and the single- and
// multi-issue (§IV-C) client-side R-tree traversal live there.
package client

import (
	"encoding/binary"
	"errors"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// Method identifies how a search was executed. It, the batch types and
// the status errors below are the vocabulary shared with the real-socket
// client (internal/proto).
type Method = proto.Method

// Search methods.
const (
	MethodFast    = proto.MethodFast
	MethodOffload = proto.MethodOffload
	MethodTCP     = proto.MethodTCP
	MethodFetch   = proto.MethodFetch
)

// BatchOp is one operation submitted through ExecBatch; BatchResult is its
// outcome, in submission order.
type (
	BatchOp     = proto.BatchOp
	BatchResult = proto.BatchResult
)

// Errors.
var (
	ErrServer   = proto.ErrServer
	ErrNotFound = proto.ErrNotFound
	ErrGaveUp   = proto.ErrGaveUp
)

// Config configures a Client.
type Config struct {
	Engine   *sim.Engine
	Host     *fabric.Host
	Endpoint *server.Endpoint
	Cost     netmodel.CostModel

	// Adaptive enables Algorithm 1; otherwise every search uses Forced.
	Adaptive bool
	Forced   Method

	// N is the back-off window unit (paper: 8).
	N int
	// T is the busy threshold on server CPU utilization (paper: 0.95).
	T float64
	// HeartbeatInv is the agreed heartbeat interval Inv (paper: 10 ms).
	HeartbeatInv time.Duration

	// MultiIssue fetches all intersecting children concurrently during
	// offloaded traversal; otherwise nodes are fetched one at a time
	// (the FaRM-style baseline).
	MultiIssue bool

	// PredSmoothing enables an EWMA utilization predictor with the given
	// coefficient α ∈ (0, 1]: predUtil = α·latest + (1−α)·previous. Zero
	// keeps the paper's predictor (the most recent heartbeat value); the
	// paper's §VI names smarter prediction as an extension point.
	PredSmoothing float64

	// Fetch arms the third access method in the adaptive switch: when the
	// request is outside any offload window and the heartbeat's predicted
	// send-engine TX utilization exceeds TxT, the search is executed by the
	// server but its result is pulled from a mailbox slot with one-sided
	// reads instead of being streamed back (DESIGN.md §5.10). Off, the
	// decision sequence is bit-for-bit the binary Algorithm 1 policy.
	Fetch bool
	// TxT is the busy threshold on predicted TX utilization (default 0.8).
	TxT float64

	// CacheRoot keeps the last consistently-read root node and starts
	// offloaded traversals from it, saving one RDMA Read per search (the
	// top-level caching idea of the Cell B-tree store the paper cites).
	// The cache is invalidated whenever a traversal observes staleness.
	CacheRoot bool

	// NodeCache is the capacity, in nodes, of the client-side
	// version-validated cache of decoded internal nodes (0 disables it,
	// leaving the read path identical to an uncached client). Entries are
	// lease-fresh for one HeartbeatInv after validation — the same
	// bounded-staleness contract as CacheRoot — and past the lease are
	// revalidated with a version-only read (an eighth of a chunk) before
	// being trusted. See internal/nodecache.
	NodeCache int

	// Prefetch is the token-bucket capacity for speculative grandchild
	// reads during multi-issue offloaded traversal (0 disables
	// prefetching, leaving the read path bit-for-bit identical). While a
	// fetched internal node decodes, its most query-overlapping children
	// get speculative span reads posted into the same doorbell batch; the
	// bucket refills at a rate proportional to the heartbeat-reported idle
	// fraction of the server fabric, so speculation backs off exactly when
	// the adaptive switch says the system is busy. See DESIGN.md §5.9.
	Prefetch int

	// MaxChunkRetries bounds per-chunk torn-read retries (default 64).
	MaxChunkRetries int
}

// Client is one Catfish client (the paper runs up to 32 per machine): the
// simulated-fabric adapter of the shared client operations (proto.Ops). It
// holds the ring-buffer and RDMA endpoints; On binds it to the simulation
// process that drives an operation.
type Client struct {
	*proto.Core
	cfg Config
	ep  *server.Endpoint

	reqID  uint64
	tagSeq uint64 // mailbox-pull read tags

	// ncache is the bounded version-validated cache of decoded internal
	// nodes the core's offloaded traversals consult (nil when
	// Config.NodeCache is 0: every lookup misses).
	ncache *nodecache.Cache

	encBuf []byte
	reads  ReadPort
}

// New validates the configuration and returns a client.
func New(cfg Config) (*Client, error) {
	if cfg.Engine == nil || cfg.Host == nil || cfg.Endpoint == nil {
		return nil, errors.New("client: Engine, Host and Endpoint are required")
	}
	if cfg.HeartbeatInv == 0 {
		cfg.HeartbeatInv = 10 * time.Millisecond
	}
	c := &Client{cfg: cfg, ep: cfg.Endpoint}
	c.reads = NewReadPort(cfg.Host, cfg.Cost, c.ep)
	if cfg.NodeCache > 0 && cfg.Endpoint.RegionVers != nil {
		c.ncache = nodecache.New(cfg.NodeCache, cfg.HeartbeatInv,
			cfg.Endpoint.ChunkSize, cfg.Endpoint.RegionVers.VersionsSize())
	}
	ocfg := proto.OpsConfig{
		Adaptive: cfg.Adaptive,
		Forced:   cfg.Forced,
		Switch: adaptive.Config{
			N:             cfg.N,
			T:             cfg.T,
			Inv:           cfg.HeartbeatInv,
			PredSmoothing: cfg.PredSmoothing,
			EnableFetch:   cfg.Fetch,
			TxT:           cfg.TxT,
		},
		Rand:            cfg.Engine.Rand(),
		Messaging:       MethodFast,
		Prefetch:        cfg.Prefetch,
		MultiIssue:      cfg.MultiIssue,
		CacheRoot:       cfg.CacheRoot,
		MaxChunkRetries: cfg.MaxChunkRetries,
		Cache:           c.ncache,
	}
	if c.ep.DataQP != nil {
		ocfg.Tree = proto.Tree{RootChunk: c.ep.RootChunk,
			NumChunks: c.ep.RegionMem.Region().NumChunks(), MaxEntries: c.ep.MaxEntries, Kind: c.ep.Index}
		ocfg.MergeSpan = c.ep.DataQP.Profile().MergeSpan
	}
	if c.ep.TCP != nil {
		ocfg.Messaging = MethodTCP
	}
	if c.ep.MailboxMem != nil && c.ep.FetchQP != nil {
		reg := c.ep.MailboxMem.Region()
		ocfg.Mailbox = proto.Mailbox{Chunks: reg.NumChunks(), SlotChunks: c.ep.FetchSlotChunks,
			ChunkPayload: reg.PayloadSize()}
	}
	c.Core = proto.NewCore(ocfg)
	return c, nil
}

// Handle is a client's operations bound to the simulation process that
// drives them.
type Handle = proto.Ops[port]

// On returns the client driven by process p; call its operations from p.
func (c *Client) On(p *sim.Proc) Handle {
	return proto.Bind(c.Core, port{ReadPort: c.reads.On(p), c: c})
}

// port is the simulated fabric's proto.Transport: the offloaded walk's
// ReadPort, the request and response rings (or the socket baseline's
// connection), and one-sided mailbox pulls on the fetch QP.
type port struct {
	ReadPort
	c *Client
}

func (h port) NextID() uint64 {
	h.c.reqID++
	return h.c.reqID
}

// ClearHeartbeat consumes a heartbeat. The switch invokes it exactly once
// per consumed heartbeat, so it doubles as the counting point.
func (h port) ClearHeartbeat() {
	h.c.Counters.HeartbeatsSeen.Inc()
	h.ReadPort.ClearHeartbeat()
}

// HeartbeatSeq returns the sequence number of the last heartbeat written
// into this client's mailbox (0 before the first one). Unlike the
// utilization word — which Algorithm 1 clears after reading and
// non-adaptive clients never clear — the sequence advances exactly once
// per heartbeat arrival, so liveness trackers poll it for changes.
func (c *Client) HeartbeatSeq() uint64 {
	if c.ep.HeartbeatM == nil {
		return 0
	}
	b := c.ep.HeartbeatM.Bytes()
	if len(b) < 24 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[16:])
}

// send writes one request frame to the server: the request ring, or the
// socket on the TCP baseline's endpoint.
func (h port) send(frame []byte, id uint64) error {
	if h.c.ep.TCP != nil {
		h.c.ep.TCP.Send(h.p, frame)
		return nil
	}
	return h.c.ep.ReqWriter.Send(h.p, frame, id, true)
}

// recv hands every reply message the server sends — batch containers
// unwrapped — to deliver until it reports done. A ring is always drained
// to empty before its head is reported back, so flow control sees the same
// consumption whether or not the exchange ended mid-drain.
func (h port) recv(deliver func(msg []byte) (done bool)) error {
	ep := h.c.ep
	for {
		var done bool
		var err error
		if ep.TCP != nil {
			done, err = unwrap(ep.TCP.Recv(h.p), deliver)
		} else {
			ep.RespReader.CQ().Pop(h.p)
			done, err = h.drainRing(deliver)
			if rerr := ep.RespReader.ReportHead(h.p); rerr != nil {
				return rerr
			}
		}
		if err != nil || done {
			return err
		}
	}
}

// drainRing delivers every complete frame in the response ring.
func (h port) drainRing(deliver func(msg []byte) bool) (done bool, err error) {
	for {
		payload, err, ok := h.c.ep.RespReader.TryRecv()
		if err != nil || !ok {
			return done, err
		}
		d, err := unwrap(payload, deliver)
		if err != nil {
			return done, err
		}
		done = done || d
	}
}

// unwrap delivers one transport frame: itself, or each sub-message of a
// batch container.
func unwrap(frame []byte, deliver func(msg []byte) bool) (done bool, err error) {
	typ, err := wire.PeekType(frame)
	if err != nil {
		return false, err
	}
	if typ != wire.MsgBatch {
		return deliver(frame), nil
	}
	it, err := wire.DecodeBatch(frame)
	if err != nil {
		return false, err
	}
	for {
		msg, ok := it.Next()
		if !ok {
			return done, it.Err()
		}
		done = deliver(msg) || done
	}
}

// Exchange performs one request/response exchange, accumulating response
// segments until END or capturing the fetch descriptor that answers
// instead. Frames for other ids — a stale segment or descriptor of an
// abandoned exchange — are skipped.
func (h port) Exchange(req wire.Request) (resp wire.Response, desc wire.FetchDesc, isDesc bool, err error) {
	h.c.encBuf = req.Encode(h.c.encBuf[:0])
	if err = h.send(h.c.encBuf, req.ID); err != nil {
		return
	}
	rerr := h.recv(func(msg []byte) bool {
		typ, id, perr := wire.PeekID(msg)
		if perr != nil || id != req.ID {
			return false
		}
		if typ == wire.MsgFetchDesc {
			desc, err = wire.DecodeFetchDesc(msg)
			isDesc = true
			return true
		}
		resp, err = wire.DecodeResponseAppend(msg, resp.Items)
		return resp.Final || err != nil
	})
	if err == nil {
		err = rerr
	}
	return
}

// Batch sends the container as one ring write (or TCP frame) — one
// immediate-data event at the server — runs the overlapped traversals while
// it is in flight, then collects.
func (h port) Batch(container []byte, ids []uint64, overlap func(), deliver func(msg []byte) bool) error {
	err := h.send(container, ids[0])
	overlap()
	if err != nil {
		return err
	}
	return h.recv(deliver)
}
