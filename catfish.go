// Package catfish is an RDMA-enabled R-tree for low latency and high
// throughput, reproducing "Catfish: Adaptive RDMA-enabled R-Tree for Low
// Latency and High Throughput" (Xiao, Wang, Geng, Lee, Zhang — ICDCS 2019).
//
// Catfish serves spatial range queries against a server-resident R*-tree
// through two complementary RDMA access methods and switches between them
// adaptively, per client, at runtime:
//
//   - Fast messaging — the client RDMA-Writes a request into a server-side
//     ring buffer; a server worker executes the search and RDMA-Writes the
//     response back. One round trip, lowest latency, burns server CPU.
//   - RDMA offloading — the client traverses the tree itself with one-sided
//     RDMA Reads against the server's registered memory region, validating
//     FaRM-style per-cacheline versions. Zero server CPU, multiple round
//     trips (pipelined by multi-issue), burns server NIC bandwidth.
//
// The adaptive back-off algorithm (paper Algorithm 1) reads the server's
// CPU-utilization heartbeats and offloads a randomized, exponentially
// growing window of searches whenever the server is saturated, so the
// fleet of clients harvests idle client CPUs and spare bandwidth without
// stampeding away from the server.
//
// Because real InfiniBand hardware is not assumed, the package ships a
// deterministic discrete-event fabric (NICs, links, CPUs, verbs) on which
// the full system runs with real data paths — ring-buffer framing, version
// checks, torn-read retries are all genuine — plus a real TCP mode
// (package rpcnet) for running across actual processes.
//
// Entry points:
//
//   - NewEngine / NewNetwork / NewServer / NewClient build a simulated
//     cluster piece by piece (see examples/geonearby).
//   - RunExperiment executes a full paper-style evaluation run and returns
//     throughput/latency/utilization measurements (see examples/adaptive
//     and bench_test.go, which regenerates every figure of the paper).
//   - NewTree / NewMemoryRegion expose the standalone R*-tree over a
//     chunked, versioned memory region (see examples/quickstart).
package catfish

import (
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/workload"
)

// Geometry and index types.
type (
	// Rect is an axis-aligned rectangle in the unit square.
	Rect = geo.Rect
	// Entry is one indexed item: a rectangle plus an opaque reference.
	Entry = rtree.Entry
	// Tree is the R*-tree stored node-per-chunk in a Region.
	Tree = rtree.Tree
	// TreeConfig sets the node fan-out.
	TreeConfig = rtree.Config
	// OpStats reports the work one tree operation performed.
	OpStats = rtree.OpStats
	// Node is a decoded R-tree node (offloading clients traverse these).
	Node = rtree.Node
	// Region is the chunked, version-protected registered memory region.
	Region = region.Region
)

// NewRect returns the rectangle spanning two corner points, normalizing
// coordinate order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geo.NewRect(x1, y1, x2, y2) }

// PointRect returns the degenerate rectangle covering exactly (x, y).
func PointRect(x, y float64) Rect { return geo.PointRect(x, y) }

// MBR returns the minimum bounding rectangle of rects.
func MBR(rects []Rect) Rect { return geo.MBR(rects) }

// NewMemoryRegion allocates a registered memory region of nchunks chunks of
// chunkSize bytes (chunkSize must be a multiple of 64).
func NewMemoryRegion(nchunks, chunkSize int) (*Region, error) {
	return region.New(nchunks, chunkSize)
}

// NewTree creates an empty R*-tree whose nodes live in reg.
func NewTree(reg *Region, cfg TreeConfig) (*Tree, error) {
	return rtree.New(reg, cfg)
}

// Simulation types.
type (
	// Engine is the deterministic discrete-event engine driving a
	// simulated cluster.
	Engine = sim.Engine
	// Proc is a simulated process; all client/server calls take one.
	Proc = sim.Proc
	// WaitGroup synchronizes simulated processes.
	WaitGroup = sim.WaitGroup
	// CPU is a processor-sharing multi-core model.
	CPU = sim.CPU
)

// NewEngine returns an engine seeded for reproducible runs.
func NewEngine(seed int64) *Engine { return sim.New(seed) }

// NewCPU returns a processor-sharing CPU with the given core count.
func NewCPU(e *Engine, cores int) *CPU { return sim.NewCPU(e, cores) }

// NewWaitGroup returns a wait group bound to e.
func NewWaitGroup(e *Engine) *WaitGroup { return sim.NewWaitGroup(e) }

// Fabric types.
type (
	// Network is one fabric instance (profile plus attached hosts).
	Network = fabric.Network
	// Host is a machine with a NIC and optionally a CPU.
	Host = fabric.Host
	// FabricProfile describes a fabric's performance envelope.
	FabricProfile = netmodel.Profile
	// CostModel converts R-tree work into CPU service demands.
	CostModel = netmodel.CostModel
)

// The paper testbed's three fabrics.
var (
	// Ethernet1G is kernel TCP over the Intel I350 1 Gbps NIC.
	Ethernet1G = netmodel.Ethernet1G
	// Ethernet40G is kernel TCP over the ConnectX-3 40 Gbps NIC.
	Ethernet40G = netmodel.Ethernet40G
	// InfiniBand100G is RC verbs over the ConnectX-5 EDR 100 Gbps HCA.
	InfiniBand100G = netmodel.InfiniBand100G
)

// NewNetwork attaches a fabric with the given profile to the engine.
func NewNetwork(e *Engine, prof FabricProfile) *Network { return fabric.NewNetwork(e, prof) }

// DefaultCostModel returns the calibrated CPU cost model.
func DefaultCostModel() CostModel { return netmodel.DefaultCostModel() }

// Server and client types.
type (
	// Server is the Catfish server.
	Server = server.Server
	// ServerConfig configures a Server.
	ServerConfig = server.Config
	// ServerMode selects polling or event-based workers.
	ServerMode = server.Mode
	// Endpoint is the connection handle a client consumes.
	Endpoint = server.Endpoint
	// Client is one Catfish client.
	Client = client.Client
	// ClientConfig configures a Client.
	ClientConfig = client.Config
	// Method identifies how a search executed (fast/offload/tcp).
	Method = client.Method
)

// Server modes (paper §IV-B).
const (
	// ModeEvent blocks workers on completion-queue events.
	ModeEvent = server.ModeEvent
	// ModePolling busy-polls rings (the FaRM-style baseline).
	ModePolling = server.ModePolling
)

// Search methods.
const (
	// MethodFast is RDMA-Write fast messaging.
	MethodFast = client.MethodFast
	// MethodOffload is one-sided-read client traversal.
	MethodOffload = client.MethodOffload
	// MethodTCP is the socket baseline.
	MethodTCP = client.MethodTCP
)

// NewServer creates a Catfish server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewClient creates a Catfish client.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// Workload types.
type (
	// QueryGen produces search rectangles.
	QueryGen = workload.QueryGen
	// UniformScale draws query edges uniform in (0, Scale].
	UniformScale = workload.UniformScale
	// PowerLawScale draws the query scale from a power law.
	PowerLawScale = workload.PowerLawScale
	// SkewedInserts is the paper's §V-B skewed insert stream.
	SkewedInserts = workload.SkewedInserts
	// Mix interleaves searches and inserts.
	Mix = workload.Mix
	// Rea02Config shapes the synthetic rea02 dataset.
	Rea02Config = workload.Rea02Config
)

// UniformRects builds the paper's uniform base dataset.
func UniformRects(n int, maxEdge float64, seed int64) []Entry {
	return workload.UniformRects(n, maxEdge, seed)
}

// Rea02Like synthesizes the rea02-structured dataset (§V-C).
func Rea02Like(cfg Rea02Config) []Entry { return workload.Rea02Like(cfg) }

// NewRea02Queries returns the ~100-result query generator for rea02.
func NewRea02Queries(n int) QueryGen { return workload.NewRea02Queries(n) }

// NewMix builds a search/insert mix; insertFraction 0 is search-only.
func NewMix(queries QueryGen, inserts SkewedInserts, insertFraction float64, refBase uint64) *Mix {
	return workload.NewMix(queries, inserts, insertFraction, refBase)
}

// Experiment types.
type (
	// Scheme is one evaluated system (TCP baselines, FaRM baselines,
	// Catfish).
	Scheme = cluster.Scheme
	// ExperimentConfig describes one evaluation run.
	ExperimentConfig = cluster.Config
	// ExperimentResult aggregates a run's measurements.
	ExperimentResult = cluster.Result
	// LatencySummary is a latency distribution snapshot.
	LatencySummary = stats.Summary
	// MicroPoint is one micro-benchmark measurement (Fig 9).
	MicroPoint = cluster.MicroPoint
	// MicroMethod selects the micro-benchmark transport.
	MicroMethod = cluster.MicroMethod
)

// The paper's evaluated schemes plus the §IV ablation variants.
var (
	// SchemeTCP1G is the socket baseline on 1 Gbps Ethernet.
	SchemeTCP1G = cluster.SchemeTCP1G
	// SchemeTCP40G is the socket baseline on 40 Gbps Ethernet.
	SchemeTCP40G = cluster.SchemeTCP40G
	// SchemeFastMessaging is the polling fast-messaging baseline.
	SchemeFastMessaging = cluster.SchemeFastMessaging
	// SchemeOffloading is the single-issue offloading baseline.
	SchemeOffloading = cluster.SchemeOffloading
	// SchemeCatfish is the full adaptive system.
	SchemeCatfish = cluster.SchemeCatfish
	// SchemeFastEvent isolates event-based fast messaging (§IV-B).
	SchemeFastEvent = cluster.SchemeFastEvent
	// SchemeOffloadMulti isolates multi-issue offloading (§IV-C).
	SchemeOffloadMulti = cluster.SchemeOffloadMulti
)

// Micro-benchmark transports (Fig 9).
const (
	// MicroTCP is a TCP echo exchange.
	MicroTCP = cluster.MicroTCP
	// MicroRDMARead fetches chunks with one-sided reads.
	MicroRDMARead = cluster.MicroRDMARead
	// MicroRDMAWrite pushes chunks with signaled writes.
	MicroRDMAWrite = cluster.MicroRDMAWrite
)

// RunExperiment executes one evaluation run.
func RunExperiment(cfg ExperimentConfig) (ExperimentResult, error) { return cluster.Run(cfg) }

// RunMicro executes the Fig 9 micro-benchmark for one transport.
func RunMicro(prof FabricProfile, method MicroMethod, sizes []int, iters int, seed int64) ([]MicroPoint, error) {
	return cluster.RunMicro(prof, method, sizes, iters, seed)
}

// DefaultHeartbeatInterval is the paper's heartbeat period.
const DefaultHeartbeatInterval = 10 * time.Millisecond
