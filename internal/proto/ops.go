package proto

import (
	"errors"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/nodecache"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// ErrGaveUp reports a one-sided read path — an offloaded traversal or a
// mailbox pull — that exhausted its retry budget.
var ErrGaveUp = errors.New("catfish: one-sided reads exceeded retry budget")

// Transport is everything the client operations (Ops) need from a
// transport: a clock, the server's heartbeat words, four ways to move
// message bytes and the post/pop primitives of one-sided tree reads. The
// simulated fabric implements it over ring buffers and RDMA reads driven by
// a *sim.Proc (which rides in the implementing value); real sockets
// implement it over a multiplexed TCP connection and the wall clock.
type Transport interface {
	ReadPort
	// ClearHeartbeat is the paper's memset(u_serv, 0).
	ClearHeartbeat()
	// NextID stamps the next request id.
	NextID() uint64
	// Exchange sends one request and folds its reply: the response segments
	// up to END, or the mailbox descriptor a *Fetch request may get instead.
	Exchange(req wire.Request) (resp wire.Response, desc wire.FetchDesc, isDesc bool, err error)
	// ReadMailbox reads len(payloads) mailbox chunks starting at chunk in
	// one wave of one-sided reads, storing each validated chunk payload;
	// torn reports that some chunk was caught mid-write.
	ReadMailbox(chunk int, payloads [][]byte) (torn bool, err error)
	// AckFetch returns a pulled slot to the server, fire-and-forget, and
	// accounts the client-side cost of the items pulled.
	AckFetch(desc wire.FetchDesc, items int)
	// Batch sends one batch container whose sub-requests carry ids, runs
	// overlap exactly once while the batch is in flight (also when the send
	// fails), and then hands every reply message addressed to one of ids to
	// deliver until it reports done.
	Batch(container []byte, ids []uint64, overlap func(), deliver func(msg []byte) (done bool)) error
}

// Mailbox is the geometry of the server's fetch mailbox as a client sees
// it: slot i occupies chunks [i×SlotChunks, (i+1)×SlotChunks) of a region
// of Chunks chunks carrying ChunkPayload payload bytes each. The zero value
// means the server has no mailbox.
type Mailbox struct {
	Chunks, SlotChunks, ChunkPayload int
}

// OpsConfig configures a Core.
type OpsConfig struct {
	// Adaptive runs Algorithm 1 per read; otherwise every read uses Forced.
	Adaptive bool
	Forced   Method
	// Switch parametrizes Algorithm 1 (and, through T and Inv, the prefetch
	// bucket's refill); Rand drives its back-off draws.
	Switch adaptive.Config
	Rand   *rand.Rand
	// Messaging labels reads the server executes over the request path:
	// MethodFast, or MethodTCP on the simulated socket baseline.
	Messaging Method
	Mailbox   Mailbox
	// DeadlineUS, when nonzero, is stamped into every request as its
	// relative latency budget.
	DeadlineUS uint32
	// Prefetch is the speculative-read token bucket's capacity (0 = none).
	Prefetch int
	// Tree is the served tree's geometry, for offloaded traversals.
	// MultiIssue posts the reads for every intersecting child at once (§IV-C)
	// instead of one node per round trip (the FaRM-style baseline); CacheRoot
	// keeps the last consistently-read root and starts traversals from it;
	// MergeSpan (> 1) is how many adjacent chunk reads the transport folds
	// into one, and so whether waves are sorted to line them up.
	Tree       Tree
	MultiIssue bool
	CacheRoot  bool
	MergeSpan  int
	// MaxRestarts bounds full-traversal restarts after structural staleness
	// (default 8); MaxChunkRetries bounds per-chunk torn-read retries and
	// torn or stale mailbox pulls (default 64).
	MaxRestarts     int
	MaxChunkRetries int
	// Cache, when non-nil, is the version-validated cache of decoded
	// internal nodes offloaded traversals consult; its counters are folded
	// into Stats and exported next to the client's.
	Cache *nodecache.Cache
	// Metrics, Trace and Shard are the telemetry sinks (nil = off) and the
	// shard index stamped into trace records.
	Metrics *telemetry.Registry
	Trace   *telemetry.Tracer
	Shard   int
}

// Core is the transport-independent state of one client: configuration,
// the Algorithm 1 switch, counters and the offloaded walk. Bind attaches it
// to a transport.
type Core struct {
	cfg OpsConfig
	sw  *adaptive.Switch
	// Counters is the live counter set; transports bump the heartbeat and
	// mailbox-pull counters they own.
	Counters telemetry.ClientMetrics
	latHist  *telemetry.Histogram
	// waitHist and walkHist split a metered offloaded search's latency in
	// two: the time it blocked on one-sided completions, and the rest
	// (validate, decode, expand, cache).
	waitHist, walkHist *telemetry.Histogram
	// Exactly one walk is set, by the index the server announced
	// (Tree.Kind): the R-tree's, or the B+-tree's through the key codec.
	walk    *Walk[rtree.Node, geo.Rect, wire.Item]
	keyWalk *Walk[btree.Node, geo.Rect, wire.Item]
}

// withDefaults fills the switch's and the retry budgets' zero fields.
func (cfg OpsConfig) withDefaults() OpsConfig {
	cfg.Switch = cfg.Switch.WithDefaults()
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 8
	}
	if cfg.MaxChunkRetries == 0 {
		cfg.MaxChunkRetries = 64
	}
	return cfg
}

// NewCore applies defaults and registers the client's metrics.
func NewCore(cfg OpsConfig) *Core {
	cfg = cfg.withDefaults()
	if !cfg.Adaptive && cfg.Forced == 0 {
		cfg.Forced = cfg.Messaging
	}
	c := &Core{cfg: cfg, sw: adaptive.New(cfg.Switch, cfg.Rand)}
	if cfg.Tree.Kind == wire.IndexBTree {
		c.keyWalk = newKeyWalk(cfg, &c.Counters)
	} else {
		c.walk = NewWalk[rtree.Node, geo.Rect, wire.Item](rtreeIndex{}, cfg, &c.Counters)
	}
	if cfg.Metrics != nil {
		c.Counters.Register(cfg.Metrics)
		telemetry.RegisterCacheFuncs(cfg.Metrics, func() telemetry.CacheStats {
			ns := cfg.Cache.Stats()
			return telemetry.CacheStats{Hits: ns.Hits, VerifiedHits: ns.VerifiedHits,
				Misses: ns.Misses, Evictions: ns.Evictions, BytesSaved: ns.BytesSaved,
				PrefetchHits: ns.PrefetchHits, PrefetchWaste: ns.PrefetchWaste}
		})
		cfg.Metrics.GaugeFunc("catfish_client_pred_util", c.sw.PredictedUtil)
		c.latHist = cfg.Metrics.Histogram("catfish_client_search_latency_seconds")
		c.waitHist = cfg.Metrics.Histogram("catfish_client_stage_seconds", "stage", "wait")
		c.walkHist = cfg.Metrics.Histogram("catfish_client_stage_seconds", "stage", "walk")
	}
	return c
}

// Index is the index the server announced.
func (c *Core) Index() wire.IndexKind { return c.cfg.Tree.Kind }

// Stats returns a snapshot of the client counters, node cache included.
// Counters are mutated atomically, so it is safe while operations run.
func (c *Core) Stats() telemetry.ClientSnapshot {
	out := c.Counters.Snapshot()
	ns := c.cfg.Cache.Stats()
	out.CacheHits = ns.Hits
	out.CacheVerifiedHits = ns.VerifiedHits
	out.CacheMisses = ns.Misses
	out.CacheEvictions = ns.Evictions
	out.CacheBytesSaved = ns.BytesSaved
	out.CachePrefetchHits = ns.PrefetchHits
	out.CachePrefetchWaste = ns.PrefetchWaste
	return out
}

// Ops is the Catfish client module over transport T: Algorithm 1's method
// choice, reads by fast messaging, offloading or remote result fetching,
// writes — always by messaging, so the server's lock discipline covers
// them (§III-B) — and batches. Like the clients built on it, it serves one
// caller at a time.
type Ops[T Transport] struct {
	*Core
	t T
}

// Bind returns c's operations over transport t.
func Bind[T Transport](c *Core, t T) Ops[T] { return Ops[T]{Core: c, t: t} }

// decide runs the client module of the adaptive coordination (Algorithm 1
// extended with the 3-way fetch branch) on the shared adaptive.Switch — see
// that package for the policy and its one documented deviation from the
// paper's pseudocode. A fetch verdict against a server without a mailbox
// degrades to fast messaging.
func (o Ops[T]) decide() Method {
	switch o.sw.DecideMethod(o.t.Now(), o.t.Heartbeat, o.t.ClearHeartbeat) {
	case adaptive.ChooseOffload:
		return MethodOffload
	case adaptive.ChooseFetch:
		if o.cfg.Mailbox.SlotChunks > 0 {
			return MethodFetch
		}
	}
	return MethodFast
}

// decideServerSide is decide for operations pinned to the server: the
// switch consumes heartbeats and keeps its window bookkeeping current, but
// never opens or spends an offload window, leaving only the fetch-vs-fast
// choice.
func (o Ops[T]) decideServerSide() Method {
	if o.sw.DecideServerSide(o.t.Now(), o.t.Heartbeat, o.t.ClearHeartbeat) == adaptive.ChooseFetch &&
		o.cfg.Mailbox.SlotChunks > 0 {
		return MethodFetch
	}
	return MethodFast
}

// pinServerSide maps a forced method onto one a kNN can execute: offload
// has no kNN path, so a forced-offload client runs its kNN fast.
func pinServerSide(m Method) Method {
	if m == MethodTCP || m == MethodFetch {
		return m
	}
	return MethodFast
}

// readMethod picks the access method for one read of type t: a search asks
// Algorithm 1 (or takes the forced method); a kNN is pinned to server-side
// execution — best-first traversal pops a global priority queue whose every
// step depends on all previous pops, so a client-side traversal would
// degenerate into one dependent chunk-read round trip per visited node
// (adaptive.Switch.DecideServerSide, DESIGN.md §5.13).
func (o Ops[T]) readMethod(t wire.MsgType) Method {
	if t == wire.MsgKNN {
		o.Counters.KNNSearches.Inc()
		if o.cfg.Adaptive {
			return o.decideServerSide()
		}
		return pinServerSide(o.cfg.Forced)
	}
	if o.cfg.Adaptive {
		return o.decide()
	}
	return o.cfg.Forced
}

// countRead counts one server-executed read under the method that carries
// it and returns that method: fetch, the socket baseline, or — for anything
// else — fast messaging.
func (c *Core) countRead(m Method) Method {
	switch m {
	case MethodFetch:
		c.Counters.FetchSearches.Inc()
		return m
	case MethodTCP:
		c.Counters.TCPSearches.Inc()
		return m
	}
	c.Counters.FastSearches.Inc()
	return MethodFast
}

// Search executes a rectangle search, choosing the method adaptively
// (Algorithm 1) or as forced by the configuration, and returns the matching
// items along with the method used.
func (o Ops[T]) Search(q geo.Rect) ([]wire.Item, Method, error) {
	m := o.readMethod(wire.MsgSearch)
	tracing := o.cfg.Trace != nil
	var start time.Duration
	var readsBefore, tornBefore uint64
	if tracing || o.latHist != nil {
		start = o.t.Now()
	}
	if tracing {
		readsBefore = o.Counters.NodesFetched.Load()
		tornBefore = o.Counters.TornRetries.Load()
	}
	var items []wire.Item
	var waited time.Duration
	var err error
	if m == MethodOffload {
		o.Counters.OffloadSearches.Inc()
		items, waited, err = o.offload(q)
	} else {
		m = o.countRead(m)
		items, err = o.serverRead(wire.Request{Type: wire.MsgSearch, Rect: q}, m == MethodFetch)
	}
	if tracing || o.latHist != nil {
		lat := o.t.Now() - start
		o.latHist.Record(lat)
		if m == MethodOffload && o.waitHist != nil {
			o.waitHist.Record(waited)
			o.walkHist.Record(lat - waited)
		}
		if tracing {
			rbusy, roff := o.sw.State()
			tr := telemetry.Trace{
				Start:        start,
				Method:       m.String(),
				Shard:        o.cfg.Shard,
				RBusy:        rbusy,
				ROff:         roff,
				PredUtil:     o.sw.PredictedUtil(),
				PredTX:       o.sw.PredictedTX(),
				OffloadReads: uint32(o.Counters.NodesFetched.Load() - readsBefore),
				TornRetries:  uint32(o.Counters.TornRetries.Load() - tornBefore),
				Latency:      lat,
			}
			if err != nil {
				tr.Err = err.Error()
			}
			o.cfg.Trace.Record(tr)
		}
	}
	return items, m, err
}

// offload answers q with the walk of the served index, and says how long
// the walk blocked on completions (0 unless metered).
func (o Ops[T]) offload(q geo.Rect) ([]wire.Item, time.Duration, error) {
	if o.keyWalk != nil {
		items, err := Offload(o.keyWalk, o.t, q)
		return items, o.keyWalk.waited, err
	}
	items, err := Offload(o.walk, o.t, q)
	return items, o.walk.waited, err
}

// Nearest returns the k entries nearest to (x, y) in ascending distance
// order, exactly as the server's local rtree.Tree.Nearest would, over fast
// messaging or the fetch/mailbox path (see readMethod).
func (o Ops[T]) Nearest(k int, x, y float64) ([]rtree.Neighbor, Method, error) {
	if o.Index() != wire.IndexRTree {
		return nil, 0, ErrIndex
	}
	items, m, err := o.knn(wire.KNNRequest(0, k, x, y))
	return NeighborsOfItems(items, x, y), m, err
}

// knn runs the kNN request req to its items, nearest first.
func (o Ops[T]) knn(req wire.Request) ([]wire.Item, Method, error) {
	m := o.countRead(o.readMethod(wire.MsgKNN))
	items, err := o.serverRead(req, m == MethodFetch)
	return items, m, err
}

// Insert adds a rectangle.
func (o Ops[T]) Insert(r geo.Rect, ref uint64) error {
	return o.write(wire.Request{Type: wire.MsgInsert, Rect: r, Ref: ref})
}

// Delete removes an exact (rect, ref) entry.
func (o Ops[T]) Delete(r geo.Rect, ref uint64) error {
	return o.write(wire.Request{Type: wire.MsgDelete, Rect: r, Ref: ref})
}

// Move relocates the entry (from, ref) to (to, ref) in one round trip: the
// server deletes the old position and inserts the new one under a single
// exclusive latch, so no concurrent search observes the object absent. A
// move of an unknown entry degrades to a plain insert (upsert semantics —
// the same state a delete-then-insert pair reaches).
func (o Ops[T]) Move(from, to geo.Rect, ref uint64) error {
	if o.Index() != wire.IndexRTree {
		return ErrIndex
	}
	return o.write(wire.Request{Type: wire.MsgMove, Rect: from, Ref: ref, Rect2: to})
}

// Promote asks the server to adopt epoch and start accepting writes,
// fencing lower-epoch lineages — the router's failover control message. It
// travels as a plain request, so a killed server answers StatusUnavailable
// and the router moves on to the next candidate.
func (o Ops[T]) Promote(epoch uint64) error {
	return o.write(wire.Request{Type: wire.MsgPromote, Ref: epoch})
}

// write counts and performs one messaging-only operation.
func (o Ops[T]) write(req wire.Request) error {
	o.countWrite(req.Type)
	resp, err := o.roundTrip(req)
	if err != nil {
		return err
	}
	return OpError(req.Type, resp.Status)
}

func (c *Core) countWrite(t wire.MsgType) {
	switch t {
	case wire.MsgInsert:
		c.Counters.Inserts.Inc()
	case wire.MsgDelete:
		c.Counters.Deletes.Inc()
	case wire.MsgMove:
		c.Counters.Moves.Inc()
	}
}
