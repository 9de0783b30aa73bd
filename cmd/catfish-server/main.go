// Command catfish-server serves a Catfish R-tree over real TCP.
//
// It builds (or loads) a dataset, bulk-loads the region-backed R*-tree,
// and serves search/insert/delete plus emulated one-sided chunk reads:
//
//	catfish-server -addr :7373 -items 2000000
//	catfish-server -addr :7373 -dataset rea02 -heartbeat 10ms
//	catfish-server -addr :7373 -load rects.bin     # from catfish-gen
//	catfish-server -addr :7373 -shards 4 -shard-index 0   # shard 0 of 4
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/dataio"
	"github.com/catfish-db/catfish/internal/rpcnet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7373", "listen address")
		items     = flag.Int("items", 200_000, "synthetic dataset size")
		dataset   = flag.String("dataset", "uniform", "dataset kind: uniform | rea02")
		load      = flag.String("load", "", "load dataset from a catfish-gen file instead")
		heartbeat = flag.Duration("heartbeat", 10*time.Millisecond, "heartbeat interval (0 disables)")
		seed      = flag.Int64("seed", 1, "dataset seed")
		shards    = flag.Int("shards", 1, "total shard count of the deployment (1 = unsharded)")
		shardIdx  = flag.Int("shard-index", 0, "this server's shard index, 0-based; every shard must be started with identical dataset flags")
		maxInsert = flag.Float64("max-insert-edge", 1e-5, "largest rectangle edge clients will insert (widens shard coverage)")

		shardAddrs = flag.String("shard-addrs", "", "comma-separated client-reachable addresses of every shard, in shard order (served with the shard map so routers can dial shards that appear mid-run)")
		backups    = flag.String("backups", "", "comma-separated backup addresses this primary replicates to (arms replication)")
		backup     = flag.Bool("backup", false, "start as a backup: reject client writes until promoted")
		replEpoch  = flag.Uint64("repl-epoch", 0, "starting replication epoch (0 = 1); all replicas of a shard must agree")

		fetchSlots = flag.Int("fetch-slots", 0, "result-mailbox slots for remote result fetching (0 disables)")
		txLineRate = flag.Float64("tx-gbps", 0, "modelled NIC TX line rate in Gb/s for the heartbeat TX-utilization signal (0 disables the signal)")

		admissionUtil = flag.Float64("admission-util", 0, "smoothed utilization (CPU, or TX with -tx-gbps) past which deadline-aware admission control arms and sheds with Overloaded (0 disables)")
		autoscaleOn   = flag.Bool("autoscale", false, "grow this process by splitting hot shards into additional in-process listeners (single host; requires -shards 1, heartbeats, no replication)")

		metricsAddr = flag.String("metrics-addr", "", "admin HTTP listen address serving /metrics (Prometheus text), /traces (JSON), and /debug/pprof (empty disables)")
		traceCap    = flag.Int("trace-cap", 1024, "trace ring capacity for /traces")
		traceEvery  = flag.Int("trace-every", 1, "sample 1 in every N search requests into the trace ring")
	)
	flag.Parse()

	var entries []catfish.Entry
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		entries, err = dataio.ReadEntries(f)
		if err != nil {
			return fmt.Errorf("load %s: %w", *load, err)
		}
	case *dataset == "rea02":
		entries = catfish.Rea02Like(catfish.Rea02Config{N: *items, Seed: *seed})
	case *dataset == "uniform":
		entries = catfish.UniformRects(*items, 0.0001, *seed)
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}

	// Sharded deployment: every shard builds the identical map from the
	// full dataset (same flags, same seed), then keeps only its own slice.
	var smap *catfish.ShardMap
	if *shards > 1 {
		if *shardIdx < 0 || *shardIdx >= *shards {
			return fmt.Errorf("-shard-index %d out of range for -shards %d", *shardIdx, *shards)
		}
		var err error
		smap, err = catfish.BuildShardMap(entries, catfish.ShardConfig{
			K:             *shards,
			MaxInsertEdge: *maxInsert,
		})
		if err != nil {
			return err
		}
		own := smap.Assign(entries)[*shardIdx]
		log.Printf("shard %d/%d owns %d of %d rectangles (map version %#x)",
			*shardIdx, *shards, len(own), len(entries), smap.Version)
		entries = own
	}

	// Region sizing assumes leaves half full at the default fan-out of 64.
	// The ×2 insert headroom reserves address space only: the region
	// commits memory a slab at a time as nodes take chunks.
	const perLeaf = 32
	chunks := len(entries)/perLeaf + len(entries)/(perLeaf*perLeaf) + 4096
	reg, err := catfish.NewMemoryRegion(chunks*2, 4096)
	if err != nil {
		return err
	}
	tree, err := catfish.NewTree(reg, catfish.TreeConfig{})
	if err != nil {
		return err
	}
	start := time.Now()
	if len(entries) > 0 {
		if err := tree.BulkLoad(entries, 0); err != nil {
			return err
		}
	}
	log.Printf("loaded %d rectangles in %v (height %d, region %d MB)",
		tree.Len(), time.Since(start).Round(time.Millisecond), tree.Height(), reg.Size()>>20)

	srvCfg := catfish.NetServerConfig{
		HeartbeatInterval: *heartbeat,
		ShardMap:          smap,
		ShardIndex:        *shardIdx,
		FetchSlots:        *fetchSlots,
		TXLineRateBps:     *txLineRate * 1e9,
		AdmissionUtil:     *admissionUtil,
	}
	if *shardAddrs != "" {
		srvCfg.ShardAddrs = strings.Split(*shardAddrs, ",")
		if len(srvCfg.ShardAddrs) != *shards {
			return fmt.Errorf("-shard-addrs lists %d addresses for -shards %d", len(srvCfg.ShardAddrs), *shards)
		}
	}
	if *backups != "" || *backup {
		rc := &catfish.NetReplicaConfig{
			Primary: !*backup,
			Epoch:   *replEpoch,
		}
		if *backups != "" {
			rc.Backups = strings.Split(*backups, ",")
		}
		srvCfg.Replica = rc
		role := "primary"
		if *backup {
			role = "backup"
		}
		log.Printf("replication armed: role=%s backups=%d epoch=%d", role, len(rc.Backups), *replEpoch)
	}

	if *autoscaleOn {
		switch {
		case *shards > 1:
			return fmt.Errorf("-autoscale grows from a single shard; start with -shards 1")
		case srvCfg.Replica != nil:
			return fmt.Errorf("-autoscale and replication are mutually exclusive")
		case *heartbeat <= 0:
			return fmt.Errorf("-autoscale needs heartbeats for utilization and map adoption")
		}
	}

	// Admin endpoint: a registry (shard-labelled when part of a sharded
	// deployment) plus a bounded trace ring, served on their own listener so
	// scrapes never contend with the data port.
	if *metricsAddr != "" {
		reg := catfish.NewRegistry()
		scoped := reg
		if *shards > 1 {
			scoped = reg.With("shard", strconv.Itoa(*shardIdx))
		}
		tr := catfish.NewTracer(*traceCap, *traceEvery)
		srvCfg.Metrics = scoped
		srvCfg.Trace = tr
		mux := catfish.NewAdminMux(reg, tr)
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	srv, err := catfish.Listen(*addr, tree, srvCfg)
	if err != nil {
		return err
	}
	log.Printf("serving on %s (root chunk %d, chunk size %d)",
		srv.Addr(), tree.RootChunk(), reg.ChunkSize())

	if *autoscaleOn {
		if err := startAutoscaler(srv, srvCfg, entries, *maxInsert, chunks); err != nil {
			return err
		}
	}
	return srv.Serve()
}

// startAutoscaler grows this process from its one server: an
// autoscale.Controller on the policy's default thresholds drives an
// rpcnet.Elastic that splits a hot shard into another listener on the same
// interface. Routers adopt the bumped map from heartbeats; they are remote,
// so the old shard drains after a fixed 20 heartbeats, well past their
// liveness window (a straggler still reads the dual-written old shard until
// it converges).
func startAutoscaler(srv *catfish.NetServer, cfg catfish.NetServerConfig, entries []catfish.Entry, maxInsert float64, chunks int) error {
	m, err := catfish.BuildShardMap(entries, catfish.ShardConfig{K: 1, MaxInsertEdge: maxInsert})
	if err != nil {
		return err
	}
	host, _, err := net.SplitHostPort(srv.Addr().String())
	if err != nil {
		return err
	}
	hb := cfg.HeartbeatInterval
	cfg.Metrics, cfg.Trace = nil, nil // the admin endpoint serves the first server's
	listen := func() (*catfish.NetServer, error) {
		reg, err := catfish.NewMemoryRegion(chunks*2, 4096)
		if err != nil {
			return nil, err
		}
		tree, err := catfish.NewTree(reg, catfish.TreeConfig{})
		if err != nil {
			return nil, err
		}
		s, err := catfish.Listen(net.JoinHostPort(host, "0"), tree, cfg)
		if err != nil {
			return nil, err
		}
		go s.Serve() //nolint:errcheck // returns on Close
		return s, nil
	}
	wait := func(stop <-chan struct{}, _ uint64) {
		select {
		case <-time.After(20 * hb):
		case <-stop:
		}
	}
	e, err := rpcnet.NewElastic(m, []*catfish.NetServer{srv}, listen, wait)
	if err != nil {
		return err
	}
	ctl := autoscale.NewController(e, loggedSplits{e}, autoscale.PolicyConfig{Cooldown: 10 * hb})
	log.Printf("autoscale: controller on")
	go ctl.Run(make(chan struct{}), 2*hb)
	return nil
}

// loggedSplits logs each split that succeeds.
type loggedSplits struct{ *rpcnet.Elastic }

func (l loggedSplits) Split(i int) (int, error) {
	k, err := l.Elastic.Split(i)
	if err == nil {
		log.Printf("autoscale: split shard %d -> K=%d (new server on %s)", i, k, l.Addrs()[k-1])
	}
	return k, err
}
