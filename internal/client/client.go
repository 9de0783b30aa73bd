// Package client implements the Catfish client: fast-messaging requests
// over ring buffers, client-side R-tree traversal over one-sided RDMA Reads
// (single-issue baseline and the multi-issue pipeline of §IV-C), and the
// adaptive back-off coordination of Algorithm 1 that switches each search
// between the two based on the server's heartbeat-reported CPU utilization.
package client

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
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

// Errors.
var (
	ErrServer   = proto.ErrServer
	ErrNotFound = proto.ErrNotFound
	ErrGaveUp   = errors.New("client: offloaded search exceeded retry budget")
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

	// MaxRestarts bounds full-search restarts after structural staleness
	// (default 8); MaxChunkRetries bounds per-chunk torn-read retries
	// (default 64).
	MaxRestarts     int
	MaxChunkRetries int

	// Metrics, when non-nil, exposes the client's counters, the predicted
	// server utilization, and a search-latency histogram on the registry
	// under catfish_client_* names. Callers running several clients against
	// one registry should hand each client a scoped view (Registry.With) or
	// accept that callback metrics register first-wins.
	Metrics *telemetry.Registry

	// Trace, when non-nil, receives one telemetry.Trace per search
	// recording the adaptive decision path (method, back-off state,
	// predicted utilization, reads issued, retries, latency).
	Trace *telemetry.Tracer

	// Shard is the shard index stamped into trace records (routers set it;
	// 0 for unsharded clients).
	Shard int
}

// Client is one Catfish client (the paper runs up to 32 per machine).
type Client struct {
	cfg Config
	ep  *server.Endpoint

	reqID  uint64
	tagSeq uint64

	// Algorithm 1 state machine (shared with every framework client).
	sw *adaptive.Switch

	// rootCache holds the last consistent root image (CacheRoot);
	// rootVerSeen is the root version last observed in the heartbeat
	// mailbox's second word, used for lease-like invalidation of both
	// rootCache and ncache.
	rootCache   *rtree.Node
	rootVerSeen uint64

	// ncache is the bounded version-validated cache of decoded internal
	// nodes (nil when Config.NodeCache is 0: every lookup misses).
	ncache *nodecache.Cache

	// Prefetch token bucket: prefTokens tokens remain (≤ Config.Prefetch),
	// refilled lazily at refill time proportional to fabric idleness.
	prefTokens     float64
	prefLastRefill time.Duration

	encBuf  []byte
	payload []byte
	node    rtree.Node
	nodeVer uint64 // region version of the chunk last decoded into node

	// Reused batching state: the doorbell batch under construction during
	// multi-issue traversal, the batch container encoder, and the decoded
	// per-op results of ExecBatch.
	readBatch []fabric.ReadReq
	benc      wire.BatchEncoder
	respBuf   wire.Response

	stats   telemetry.ClientMetrics
	latHist *telemetry.Histogram
}

// New validates the configuration and returns a client.
func New(cfg Config) (*Client, error) {
	if cfg.Engine == nil || cfg.Host == nil || cfg.Endpoint == nil {
		return nil, errors.New("client: Engine, Host and Endpoint are required")
	}
	if cfg.N == 0 {
		cfg.N = 8
	}
	if cfg.T == 0 {
		cfg.T = 0.95
	}
	if cfg.HeartbeatInv == 0 {
		cfg.HeartbeatInv = 10 * time.Millisecond
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 8
	}
	if cfg.MaxChunkRetries == 0 {
		cfg.MaxChunkRetries = 64
	}
	if !cfg.Adaptive && cfg.Forced == 0 {
		if cfg.Endpoint.TCP != nil {
			cfg.Forced = MethodTCP
		} else {
			cfg.Forced = MethodFast
		}
	}
	c := &Client{cfg: cfg, ep: cfg.Endpoint}
	c.prefTokens = float64(cfg.Prefetch) // start full: idle fabric until told otherwise
	if cfg.NodeCache > 0 && cfg.Endpoint.RegionVers != nil {
		c.ncache = nodecache.New(cfg.NodeCache, cfg.HeartbeatInv,
			cfg.Endpoint.ChunkSize, cfg.Endpoint.RegionVers.VersionsSize())
	}
	c.sw = adaptive.New(adaptive.Config{
		N:             cfg.N,
		T:             cfg.T,
		Inv:           cfg.HeartbeatInv,
		PredSmoothing: cfg.PredSmoothing,
		EnableFetch:   cfg.Fetch,
		TxT:           cfg.TxT,
	}, cfg.Engine.Rand())
	if cfg.Metrics != nil {
		c.stats.Register(cfg.Metrics)
		telemetry.RegisterCacheFuncs(cfg.Metrics, func() telemetry.CacheStats {
			ns := c.ncache.Stats()
			return telemetry.CacheStats{Hits: ns.Hits, VerifiedHits: ns.VerifiedHits,
				Misses: ns.Misses, Evictions: ns.Evictions, BytesSaved: ns.BytesSaved,
				PrefetchHits: ns.PrefetchHits, PrefetchWaste: ns.PrefetchWaste}
		})
		cfg.Metrics.GaugeFunc("catfish_client_pred_util", c.sw.PredictedUtil)
		c.latHist = cfg.Metrics.Histogram("catfish_client_search_latency_seconds")
	}
	return c, nil
}

// Stats returns a snapshot of the client counters. Counters are mutated
// atomically, so the snapshot is safe to take while the simulation runs
// (progress meters, tests under -race).
func (c *Client) Stats() telemetry.ClientSnapshot {
	out := c.stats.Snapshot()
	ns := c.ncache.Stats()
	out.CacheHits = ns.Hits
	out.CacheVerifiedHits = ns.VerifiedHits
	out.CacheMisses = ns.Misses
	out.CacheEvictions = ns.Evictions
	out.CacheBytesSaved = ns.BytesSaved
	out.CachePrefetchHits = ns.PrefetchHits
	out.CachePrefetchWaste = ns.PrefetchWaste
	return out
}

// prefetchBudget refills the token bucket and returns how many speculative
// reads the current wave may post (≤ the remaining whole tokens). The
// refill rate is Prefetch tokens per heartbeat interval scaled by the
// fabric's idle fraction (1 − u_serv): an idle server earns the full rate,
// a server past the busy threshold T earns nothing — RFP-style speculation
// that never recreates the congestion the adaptive switch avoids.
func (c *Client) prefetchBudget(now time.Duration) int {
	if c.cfg.Prefetch <= 0 {
		return 0
	}
	elapsed := now - c.prefLastRefill
	c.prefLastRefill = now
	util := c.readHeartbeat()
	if util < c.cfg.T && elapsed > 0 {
		rate := float64(c.cfg.Prefetch) * (1 - util) / float64(c.cfg.HeartbeatInv)
		c.prefTokens += rate * float64(elapsed)
		if c.prefTokens > float64(c.cfg.Prefetch) {
			c.prefTokens = float64(c.cfg.Prefetch)
		}
	}
	return int(c.prefTokens)
}

// spendPrefetch consumes n tokens after a wave posted n speculative reads.
func (c *Client) spendPrefetch(n int) {
	c.prefTokens -= float64(n)
	if c.prefTokens < 0 {
		c.prefTokens = 0
	}
}

func (c *Client) nextID() uint64 {
	c.reqID++
	return c.reqID
}

// Search executes a rectangle search, choosing the method adaptively
// (Algorithm 1) or as forced by the configuration, and returns the matching
// items along with the method used.
func (c *Client) Search(p *sim.Proc, q geo.Rect) ([]wire.Item, Method, error) {
	m := c.cfg.Forced
	if c.cfg.Adaptive {
		m = c.decide(p)
	}
	tracing := c.cfg.Trace != nil
	var start time.Duration
	var readsBefore, tornBefore uint64
	if tracing || c.latHist != nil {
		start = p.Now()
	}
	if tracing {
		readsBefore = c.stats.NodesFetched.Load()
		tornBefore = c.stats.TornRetries.Load()
	}
	var items []wire.Item
	var err error
	switch m {
	case MethodOffload:
		c.stats.OffloadSearches.Inc()
		items, err = c.searchOffload(p, q)
	case MethodTCP:
		c.stats.TCPSearches.Inc()
		items, err = c.searchTCP(p, q)
	case MethodFetch:
		c.stats.FetchSearches.Inc()
		items, err = c.searchFetch(p, q)
	default:
		m = MethodFast
		c.stats.FastSearches.Inc()
		items, err = c.searchFast(p, q)
	}
	if tracing || c.latHist != nil {
		lat := p.Now() - start
		c.latHist.Record(lat)
		if tracing {
			rbusy, roff := c.sw.State()
			tr := telemetry.Trace{
				Start:        start,
				Method:       m.String(),
				Shard:        c.cfg.Shard,
				RBusy:        rbusy,
				ROff:         roff,
				PredUtil:     c.sw.PredictedUtil(),
				PredTX:       c.sw.PredictedTX(),
				OffloadReads: uint32(c.stats.NodesFetched.Load() - readsBefore),
				TornRetries:  uint32(c.stats.TornRetries.Load() - tornBefore),
				Latency:      lat,
			}
			if err != nil {
				tr.Err = err.Error()
			}
			c.cfg.Trace.Record(tr)
		}
	}
	return items, m, err
}

// Insert adds a rectangle; R-tree writes always travel by messaging so the
// server's lock discipline covers them (§III-B).
func (c *Client) Insert(p *sim.Proc, r geo.Rect, ref uint64) error {
	c.stats.Inserts.Inc()
	resp, err := c.roundTrip(p, wire.Request{Type: wire.MsgInsert, ID: c.nextID(), Rect: r, Ref: ref})
	if err != nil {
		return err
	}
	return proto.OpError(wire.MsgInsert, resp.Status)
}

// Delete removes an exact (rect, ref) entry.
func (c *Client) Delete(p *sim.Proc, r geo.Rect, ref uint64) error {
	c.stats.Deletes.Inc()
	resp, err := c.roundTrip(p, wire.Request{Type: wire.MsgDelete, ID: c.nextID(), Rect: r, Ref: ref})
	if err != nil {
		return err
	}
	return proto.OpError(wire.MsgDelete, resp.Status)
}

// Promote asks the server to adopt epoch and start accepting writes — the
// router's failover control message. It travels as a plain request so a
// killed server answers StatusUnavailable and the router moves on to the
// next candidate.
func (c *Client) Promote(p *sim.Proc, epoch uint64) error {
	resp, err := c.roundTrip(p, wire.Request{Type: wire.MsgPromote, ID: c.nextID(), Ref: epoch})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return proto.StatusError(resp.Status, "promote")
	}
	return nil
}

// decide runs the client module of the adaptive coordination
// (Algorithm 1 extended with the 3-way fetch branch), delegating to the
// shared adaptive.Switch state machine — see that package for the policy
// and its one documented deviation from the paper's pseudocode. A fetch
// verdict against an endpoint without a mailbox (server started with
// FetchSlots = 0) degrades to fast messaging.
func (c *Client) decide(p *sim.Proc) Method {
	switch c.sw.DecideMethod(p.Now(), c.readHeartbeatBoth, c.clearHeartbeat) {
	case adaptive.ChooseOffload:
		return MethodOffload
	case adaptive.ChooseFetch:
		if c.ep.MailboxMem != nil {
			return MethodFetch
		}
		return MethodFast
	default:
		return MethodFast
	}
}

// readHeartbeat returns the mailbox utilization (0 = no heartbeat, per the
// paper's u_serv != 0 check).
func (c *Client) readHeartbeat() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(c.ep.HeartbeatM.Bytes()))
}

// readHeartbeatBoth additionally returns the heartbeat's TX-utilization
// word (0 against servers whose mailboxes predate the widened layout).
func (c *Client) readHeartbeatBoth() (float64, float64) {
	b := c.ep.HeartbeatM.Bytes()
	cpu := math.Float64frombits(binary.LittleEndian.Uint64(b))
	tx := 0.0
	if len(b) >= server.HeartbeatMailboxSize {
		tx = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	}
	return cpu, tx
}

// clearHeartbeat is the paper's memset(u_serv, 0). Only the utilization
// word is cleared: the mailbox's second word carries the root version and
// must persist for the root-cache invalidation check. The switch invokes it
// exactly once per consumed heartbeat, so it doubles as the counting point.
func (c *Client) clearHeartbeat() {
	c.stats.HeartbeatsSeen.Inc()
	b := c.ep.HeartbeatM.Bytes()
	for i := 0; i < 8 && i < len(b); i++ {
		b[i] = 0
	}
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

// heartbeatRootVersion reads the root version published alongside the
// utilization (0 when the server has not heartbeated yet).
func (c *Client) heartbeatRootVersion() uint64 {
	b := c.ep.HeartbeatM.Bytes()
	if len(b) < 16 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[8:])
}

// searchFast sends the search over the request ring and collects the
// (possibly segmented) response.
func (c *Client) searchFast(p *sim.Proc, q geo.Rect) ([]wire.Item, error) {
	resp, err := c.roundTrip(p, wire.Request{Type: wire.MsgSearch, ID: c.nextID(), Rect: q})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, proto.StatusError(resp.Status, "search")
	}
	return resp.Items, nil
}

// roundTrip performs one fast-messaging request/response exchange,
// accumulating response segments until END.
func (c *Client) roundTrip(p *sim.Proc, req wire.Request) (wire.Response, error) {
	if c.ep.TCP != nil {
		return c.roundTripTCP(p, req)
	}
	c.encBuf = req.Encode(c.encBuf[:0])
	if err := c.ep.ReqWriter.Send(p, c.encBuf, req.ID, true); err != nil {
		return wire.Response{}, err
	}
	var out wire.Response
	for {
		c.ep.RespReader.CQ().Pop(p)
		done, err := c.drainResponses(req.ID, &out)
		if rerr := c.ep.RespReader.ReportHead(p); rerr != nil {
			return out, rerr
		}
		if err != nil {
			return out, err
		}
		if done {
			return out, nil
		}
	}
}

// drainResponses consumes every complete frame in the response ring,
// folding segments of request id into out. It reports whether the final
// segment has arrived.
func (c *Client) drainResponses(id uint64, out *wire.Response) (bool, error) {
	done := false
	for {
		payload, err, ok := c.ep.RespReader.TryRecv()
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		typ, err := wire.PeekType(payload)
		if err != nil {
			return done, err
		}
		if typ != wire.MsgResponse {
			continue // stray frame (unused message kinds); ignore
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			return done, err
		}
		if resp.ID != id {
			continue // stale segment from an aborted exchange
		}
		out.ID = resp.ID
		out.Status = resp.Status
		out.Items = append(out.Items, resp.Items...)
		if resp.Final {
			out.Final = true
			done = true
		}
	}
}

// roundTripTCP is the socket-baseline exchange.
func (c *Client) roundTripTCP(p *sim.Proc, req wire.Request) (wire.Response, error) {
	c.encBuf = req.Encode(c.encBuf[:0])
	c.ep.TCP.Send(p, c.encBuf)
	var out wire.Response
	for {
		payload := c.ep.TCP.Recv(p)
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			return out, err
		}
		if resp.ID != req.ID {
			continue
		}
		out.ID = resp.ID
		out.Status = resp.Status
		out.Items = append(out.Items, resp.Items...)
		if resp.Final {
			return out, nil
		}
	}
}

// searchTCP runs the search over the TCP baseline.
func (c *Client) searchTCP(p *sim.Proc, q geo.Rect) ([]wire.Item, error) {
	resp, err := c.roundTripTCP(p, wire.Request{Type: wire.MsgSearch, ID: c.nextID(), Rect: q})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, proto.StatusError(resp.Status, "search")
	}
	return resp.Items, nil
}
