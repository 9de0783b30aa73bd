// Package cluster assembles full Catfish experiments: one server — or K
// shards with R replicas each — plus up to hundreds of clients spread over
// simulated hosts (Deploy), running the paper's workloads under one of the
// evaluated schemes (Run), and collecting the metrics the paper plots —
// throughput (Kops), request latency, server CPU utilization, and server
// NIC bandwidth (Deployment.Result).
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
	"github.com/catfish-db/catfish/internal/workload"
)

// Scheme is one of the systems under evaluation (§V: the two TCP baselines,
// the two FaRM-style RDMA baselines, and Catfish).
type Scheme struct {
	Name    string
	Profile netmodel.Profile
	// TCP selects the socket transport (fast-messaging semantics over the
	// kernel stack).
	TCP bool
	// ServerMode picks polling or event-based request processing.
	ServerMode server.Mode
	// Adaptive enables Algorithm 1; otherwise Forced is used for searches.
	Adaptive bool
	Forced   client.Method
	// MultiIssue enables the §IV-C pipeline during offloaded traversal.
	MultiIssue bool
	// Heartbeats enables the utilization heartbeat (needed by Adaptive).
	Heartbeats bool
	// Fetch enables remote result fetching (DESIGN.md §5.10): the server
	// registers a result mailbox and, with Adaptive, the switch runs the
	// 3-way policy keyed on both the CPU and the TX heartbeat words. A
	// Forced of client.MethodFetch implies the mailbox too.
	Fetch bool
}

// fetchEnabled reports whether the server must register a result mailbox.
func (s Scheme) fetchEnabled() bool { return s.Fetch || s.Forced == client.MethodFetch }

// The paper's five schemes.
var (
	// SchemeTCP1G is the socket baseline on 1 Gbps Ethernet.
	SchemeTCP1G = Scheme{Name: "tcp-1g", Profile: netmodel.Ethernet1G, TCP: true, ServerMode: server.ModeEvent, Forced: client.MethodTCP}
	// SchemeTCP40G is the socket baseline on 40 Gbps Ethernet.
	SchemeTCP40G = Scheme{Name: "tcp-40g", Profile: netmodel.Ethernet40G, TCP: true, ServerMode: server.ModeEvent, Forced: client.MethodTCP}
	// SchemeFastMessaging is the FaRM-style RDMA-Write messaging baseline
	// (polling workers, §III-A).
	SchemeFastMessaging = Scheme{Name: "fastmsg", Profile: netmodel.InfiniBand100G, ServerMode: server.ModePolling, Forced: client.MethodFast}
	// SchemeOffloading is the FaRM-style one-sided-read baseline
	// (single-issue traversal, §III-B).
	SchemeOffloading = Scheme{Name: "offload", Profile: netmodel.InfiniBand100G, ServerMode: server.ModePolling, Forced: client.MethodOffload}
	// SchemeCatfish combines event-based fast messaging, multi-issue
	// offloading, and the adaptive switch (§IV).
	SchemeCatfish = Scheme{Name: "catfish", Profile: netmodel.InfiniBand100G, ServerMode: server.ModeEvent, Adaptive: true, MultiIssue: true, Heartbeats: true}
	// SchemeFastEvent isolates the event-based fast-messaging fix of §IV-B
	// (used in the Fig 7 comparison and ablations).
	SchemeFastEvent = Scheme{Name: "fastmsg-event", Profile: netmodel.InfiniBand100G, ServerMode: server.ModeEvent, Forced: client.MethodFast}
	// SchemeOffloadMulti isolates multi-issue offloading (§IV-C ablation).
	SchemeOffloadMulti = Scheme{Name: "offload-multi", Profile: netmodel.InfiniBand100G, ServerMode: server.ModePolling, Forced: client.MethodOffload, MultiIssue: true}
	// SchemeFetch forces the RFP-style fetch access method for every search
	// (DESIGN.md §5.10): server-executed searches, mailbox delivery, client
	// pulls by one-sided READ.
	SchemeFetch = Scheme{Name: "fetch", Profile: netmodel.InfiniBand100G, ServerMode: server.ModeEvent, Forced: client.MethodFetch, Fetch: true}
	// SchemeCatfish3 is Catfish with the 3-way adaptive switch: fast
	// messaging, offloading, or remote result fetching, keyed on the
	// heartbeat's CPU and TX utilization words.
	SchemeCatfish3 = Scheme{Name: "catfish-3way", Profile: netmodel.InfiniBand100G, ServerMode: server.ModeEvent, Adaptive: true, MultiIssue: true, Heartbeats: true, Fetch: true}
)

// Config describes one experiment run.
type Config struct {
	Scheme Scheme

	// Dataset is bulk-loaded into the tree before the run.
	Dataset []rtree.Entry
	// Workload generates each client's operations.
	Workload *workload.Mix
	// NumClients and RequestsPerClient shape the closed-loop load
	// (paper: 32–256 clients, 10,000 requests each).
	NumClients        int
	RequestsPerClient int
	// BatchSize coalesces up to B consecutive requests per client into one
	// batch container (one ring write / TCP frame, one server latch and
	// charge). 0 issues each request directly; 1 issues single-operation
	// batches, which delegate to the unbatched operations and reproduce
	// them bit-for-bit (asserted by TestBatchSizeOneEquivalence).
	BatchSize int
	// ClientsPerHost is how many client processes share one machine
	// (paper: up to 32 per node).
	ClientsPerHost int

	// ServerCores is the server machine's core count (paper nodes: 2x14-core
	// Broadwell).
	ServerCores int

	// ChunkSize and MaxEntries shape the region/tree (defaults 4096/64).
	ChunkSize  int
	MaxEntries int

	// Adaptive parameters (paper: N=8, T=0.95, Inv=10ms).
	N            int
	T            float64
	HeartbeatInv time.Duration

	// TxT is the TX-utilization threshold of the 3-way switch's fetch
	// branch (0 selects the adaptive package default). Only meaningful on a
	// scheme with Fetch and Adaptive set.
	TxT float64
	// FetchSlots / FetchInlineMax shape the server's result mailbox on
	// fetch-enabled schemes (0 selects the server defaults: slots =
	// 4×NumClients capped to 256, inline below one response segment).
	FetchSlots     int
	FetchInlineMax int

	// MultiIssueDepth is the data QP send-queue depth (outstanding reads).
	MultiIssueDepth int

	// CacheRoot enables client-side root caching with heartbeat-versioned
	// invalidation (extension; see client.Config.CacheRoot).
	CacheRoot bool
	// NodeCache is the per-client capacity (in nodes) of the version-
	// validated internal-node cache on the offloading read path; 0 disables
	// it (extension; see client.Config.NodeCache).
	NodeCache int
	// PredSmoothing enables the EWMA utilization predictor (extension;
	// see client.Config.PredSmoothing).
	PredSmoothing float64

	// MergeSpan caps how many physically-adjacent chunk reads one doorbell
	// batch coalesces into a single RDMA read (0 or 1 disables merging;
	// extension, see netmodel.Profile.MergeSpan and DESIGN.md §5.9).
	MergeSpan int
	// Prefetch is the per-client token-bucket capacity for speculative
	// grandchild span reads on the offload path; 0 disables prefetching
	// (extension; see client.Config.Prefetch).
	Prefetch int

	// StagedWrites opens real torn-read windows during server-side node
	// publishes (meaningful for workloads with inserts).
	StagedWrites bool

	// PrebuiltTree serves an already-loaded tree (and its region) instead
	// of bulk-loading Dataset. Sharing one tree between runs is only valid
	// for workloads with no writes: mutations would leak from run to run.
	// The benchmark harness uses this to amortize the 2M-rectangle load
	// across a sweep. Incompatible with Shards > 1 (each K partitions the
	// dataset differently).
	PrebuiltTree *rtree.Tree

	// Shards partitions the dataset across K independent servers (each with
	// its own host, CPU, NIC, and heartbeat stream); clients route through
	// a scatter-gather shard.Router with one adaptive switch per shard.
	// 0 or 1 deploys one server and binds each client to it directly, with
	// no router in between.
	Shards int

	// Replicas is the per-shard replication factor: each shard gets
	// Replicas-1 synchronously updated backup servers, and routers promote
	// the best backup when the primary refuses service or its health window
	// lapses. 0 or 1 disables replication, leaving the sharded path
	// bit-for-bit unchanged. Failover is the router's job, so Replicas > 1,
	// FailAfter and VerifyQueries are rejected unless Shards > 1.
	Replicas int
	// FailAfter > 0 injects a primary crash: shard FailShard's primary is
	// killed at that virtual time (heartbeats freeze, requests answer
	// StatusUnavailable). Zero disables fault injection. FailShard must name
	// one of the Shards.
	FailAfter time.Duration
	FailShard int
	// VerifyQueries > 0 replays that many random queries through a router
	// after the workload drains and compares each result against a
	// brute-force scan of the dataset plus every acknowledged insert; a
	// mismatch fails the run. This is the zero-lost-acknowledged-writes
	// check of the failover tests.
	VerifyQueries int

	Seed int64
}

// Result aggregates one run's measurements.
type Result struct {
	Scheme    string
	Clients   int
	Ops       uint64
	Makespan  time.Duration
	Kops      float64
	Latency   stats.Summary // search latency
	InsertLat stats.Summary

	ServerCPUUtil   float64 // mean utilization over the run (0..1)
	ServerUsefulCPU float64 // polling mode: fraction doing request work
	// ServerTXGbps is the server NIC's send-engine rate — bytes the server
	// CPU posted. ServerReadTXGbps is the responder-engine rate: READ
	// response data (offload traversals, mailbox pulls) the NIC serves
	// without CPU involvement. Their sum is the port rate.
	ServerTXGbps     float64
	ServerReadTXGbps float64
	ServerRXGbps     float64

	// Client is the unified client counter snapshot aggregated over every
	// client in the run; the flattened counter fields below are derived
	// from it (kept so existing sweeps and reports read unchanged).
	Client telemetry.ClientSnapshot

	OffloadFraction float64
	TornRetries     uint64
	StaleRestarts   uint64
	NodesFetched    uint64

	// FetchFraction is the share of searches served by remote result
	// fetching; FetchSearches/FetchBytes flatten the corresponding Client
	// counters for sweeps (zero on non-fetch schemes).
	FetchFraction float64
	FetchSearches uint64
	FetchBytes    uint64

	// Batches / BatchedOps aggregate the clients' batch containers sent and
	// the operations they carried (zero when BatchSize <= 1).
	Batches    uint64
	BatchedOps uint64

	// OffloadReadsPerSearch is NodesFetched divided by the number of
	// offloaded searches — the mean one-sided chunk reads each offloaded
	// traversal issued (lower is better; the node cache drives it down).
	OffloadReadsPerSearch float64
	// OffloadWQEsPerSearch is ReadWQEs divided by the number of offloaded
	// searches — the mean one-sided work requests actually posted per
	// traversal. With merging and prefetching this drops below the read
	// count: adjacent reads share a WQE (the §5.9 target is < 1.2).
	OffloadWQEsPerSearch float64
	// MergeRatio is logical reads per posted WQE (≥ 1; 1 = no merging).
	MergeRatio float64
	// Prefetch aggregates over all clients (zero when disabled).
	PrefetchIssued uint64
	PrefetchHits   uint64
	PrefetchWaste  uint64
	// Node-cache aggregates over all clients (zero when disabled).
	VersionReads    uint64
	CacheHits       uint64
	CacheVerified   uint64
	CacheMisses     uint64
	CacheEvictions  uint64
	CacheBytesSaved uint64

	ServerStats server.Stats

	// Sharded-run extras (empty/zero for single-server runs). ServerStats,
	// CPU, and NIC figures above aggregate across shards (stats summed,
	// utilizations averaged, bandwidths summed); PerShard keeps the split
	// so sweeps can plot load skew.
	PerShard []ShardResult
	// FanoutPerSearch is the mean number of shards each search or kNN
	// query scattered to.
	FanoutPerSearch float64
	// SkippedSearches counts searches whose every target shard was
	// unhealthy; UnhealthyWrites counts writes rejected for a dead owner.
	SkippedSearches uint64
	UnhealthyWrites uint64
	// Promotions counts backup promotions routers performed (failovers);
	// BackupReads the sub-searches a backup replica answered while its
	// primary refused service; ReplRecords the replicated mutations the
	// backups applied. All zero at Replicas <= 1.
	Promotions  uint64
	BackupReads uint64
	ReplRecords uint64
}

// ShardResult is one shard's share of a sharded run.
type ShardResult struct {
	Shard   int
	Entries int    // dataset entries owned at load time
	Ops     uint64 // server-side searches+inserts+deletes executed
	// Client aggregates the per-shard client counters of every router's
	// connection to this shard.
	Client telemetry.ClientSnapshot
	// OffloadFraction is the fraction of this shard's sub-searches that ran
	// as client-side traversals — per-shard Algorithm 1 state made visible.
	OffloadFraction float64
	CPUUtil         float64
	TXGbps          float64
	ReadTXGbps      float64
	RXGbps          float64
}

// applyClientSnapshot stores the aggregated client counters on the result
// and derives the legacy flattened fields from them.
func (r *Result) applyClientSnapshot(agg telemetry.ClientSnapshot) {
	r.Client = agg
	r.OffloadFraction = agg.OffloadFraction()
	r.TornRetries = agg.TornRetries
	r.StaleRestarts = agg.StaleRestarts
	r.NodesFetched = agg.NodesFetched
	r.Batches = agg.BatchesSent
	r.BatchedOps = agg.BatchedOps
	r.FetchFraction = agg.FetchFraction()
	r.FetchSearches = agg.FetchSearches
	r.FetchBytes = agg.FetchBytes
	r.VersionReads = agg.VersionReads
	r.CacheHits = agg.CacheHits
	r.CacheVerified = agg.CacheVerifiedHits
	r.CacheMisses = agg.CacheMisses
	r.CacheEvictions = agg.CacheEvictions
	r.CacheBytesSaved = agg.CacheBytesSaved
	r.PrefetchIssued = agg.PrefetchIssued
	r.PrefetchHits = agg.PrefetchHits
	r.PrefetchWaste = agg.PrefetchWaste
	if agg.OffloadSearches > 0 {
		r.OffloadReadsPerSearch = float64(agg.NodesFetched) / float64(agg.OffloadSearches)
		r.OffloadWQEsPerSearch = float64(agg.ReadWQEs) / float64(agg.OffloadSearches)
	}
	if agg.ReadWQEs > 0 {
		r.MergeRatio = float64(agg.NodesFetched+agg.VersionReads+agg.PrefetchIssued) / float64(agg.ReadWQEs)
	}
}

func (c *Config) applyDefaults() {
	if c.NumClients == 0 {
		c.NumClients = 16
	}
	if c.RequestsPerClient == 0 {
		c.RequestsPerClient = 1000
	}
	if c.ClientsPerHost == 0 {
		c.ClientsPerHost = 32
	}
	if c.ServerCores == 0 {
		c.ServerCores = 28
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 4096
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 64
	}
	if c.N == 0 {
		c.N = 8
	}
	if c.T == 0 {
		c.T = 0.95
	}
	if c.HeartbeatInv == 0 {
		c.HeartbeatInv = 10 * time.Millisecond
	}
	if c.MultiIssueDepth == 0 {
		c.MultiIssueDepth = 16
	}
	if c.Scheme.fetchEnabled() && c.FetchSlots == 0 {
		// Enough slots that a full client population in fetch mode rarely
		// exhausts the mailbox, without registering an unbounded region.
		c.FetchSlots = 4 * c.NumClients
		if c.FetchSlots > 256 {
			c.FetchSlots = 256
		}
	}
}

// regionChunks sizes the region for the dataset plus insert headroom.
func (c *Config) regionChunks() int {
	items := len(c.Dataset) + c.NumClients*c.RequestsPerClient/4
	perLeaf := c.MaxEntries / 2
	if perLeaf < 1 {
		perLeaf = 1
	}
	nodes := items/perLeaf + items/(perLeaf*perLeaf) + 1024
	return nodes * 2
}

// Run executes the experiment and returns its measurements: Deploy, then a
// closed loop per client issuing RequestsPerClient operations drawn from
// the workload in containers of BatchSize (one at a time, directly, when
// BatchSize is 0), then the roll-up.
func Run(cfg Config) (Result, error) {
	cfg.applyDefaults()
	if cfg.Workload == nil {
		return Result{}, errors.New("cluster: Workload is required")
	}
	d, err := Deploy(cfg)
	if err != nil {
		return Result{}, err
	}
	searchLat := stats.NewHistogram()
	insertLat := stats.NewHistogram()

	// Per-driver acknowledged inserts, recorded only when the post-run
	// equivalence check is armed: an acked write that a later search cannot
	// find is a lost write.
	var acked [][]rtree.Entry
	var verify func(p *sim.Proc) error
	if cfg.VerifyQueries > 0 {
		acked = make([][]rtree.Entry, cfg.NumClients)
		verify = func(p *sim.Proc) error {
			want := append([]rtree.Entry(nil), cfg.Dataset...)
			for _, a := range acked {
				want = append(want, a...)
			}
			return verifySharded(d.On(0, p), cfg, want)
		}
	}

	step := max(cfg.BatchSize, 1)
	err = d.Drive(func(i int, p *sim.Proc) error {
		ops := d.On(i, p)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		// Re-seed the per-client workload stream by cloning the mix.
		mix := *cfg.Workload
		batch := make([]client.BatchOp, 0, step)
		results := make([]client.BatchResult, 0, step)
		for r := 0; r < cfg.RequestsPerClient; r += len(batch) {
			batch = batch[:0]
			for len(batch) < step && r+len(batch) < cfg.RequestsPerClient {
				op := mix.Next(rng)
				if op.Type == workload.OpInsert {
					batch = append(batch, client.BatchOp{
						Type: wire.MsgInsert, Rect: op.Rect, Ref: op.Ref + uint64(i)<<32})
				} else {
					batch = append(batch, client.BatchOp{Type: wire.MsgSearch, Rect: op.Rect})
				}
			}
			start := p.Now()
			switch {
			case cfg.BatchSize > 0:
				results = ops.ExecBatch(batch, results)
			case batch[0].Type == wire.MsgInsert:
				results = append(results[:0], client.BatchResult{Err: ops.Insert(batch[0].Rect, batch[0].Ref)})
			default:
				_, _, err := ops.Search(batch[0].Rect)
				results = append(results[:0], client.BatchResult{Err: err})
			}
			elapsed := p.Now() - start
			// Batched ops complete together; each observes the batch's
			// latency.
			for j, op := range batch {
				if err := results[j].Err; err != nil {
					return fmt.Errorf("op %d: %w", r+j, err)
				}
				if op.Type == wire.MsgInsert {
					insertLat.Record(elapsed)
					if acked != nil {
						acked[i] = append(acked[i], rtree.Entry{Rect: op.Rect, Ref: op.Ref})
					}
				} else {
					searchLat.Record(elapsed)
				}
			}
			d.Count(p, len(batch))
		}
		return nil
	}, verify)
	if err != nil {
		return Result{}, err
	}
	res := d.Result()
	res.Latency = searchLat.Summarize()
	res.InsertLat = insertLat.Summarize()
	return res, nil
}
