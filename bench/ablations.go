package bench

import (
	"fmt"
	"time"

	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/workload"
)

// Ablations lists every ablation (DESIGN.md §7) by the name
// catfish-bench -ablation takes, in the order "all" runs them.
var Ablations = []struct {
	Name string
	Run  func(Options) (*stats.Table, error)
}{
	{"n", AblationBackoffN},
	{"t", AblationThresholdT},
	{"heartbeat", AblationHeartbeat},
	{"multiissue", AblationMultiIssueDepth},
	{"batch", AblationBatchSize},
	{"chunk", AblationChunkSize},
	{"rootcache", AblationRootCache},
	{"nodecache", AblationNodeCache},
	{"prefetch", AblationPrefetch},
	{"predictor", AblationPredictor},
	{"fetch", AblationFetch},
	{"shards", AblationShards},
	{"failover", AblationFailover},
	{"autoscale", AblationAutoscale},
	{"moving", AblationMovingObjects},
	{"knn", AblationKNN},
	{"hotspot", AblationHotspot},
	{"framework", Framework},
}

// ablationConfig is the common saturated-server setup the ablations vary:
// Catfish under the CPU-bound workload, where adaptivity matters most.
func (o Options) ablationConfig(cache *datasetCache, clients int) (cluster.Config, error) {
	tree, err := cache.uniformTree()
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Scheme:            cluster.SchemeCatfish,
		PrebuiltTree:      tree,
		Workload:          searchMix(workload.UniformScale{Scale: 0.00001}),
		NumClients:        clients,
		RequestsPerClient: o.Requests,
		HeartbeatInv:      o.HeartbeatInv,
		Seed:              o.Seed,
	}, nil
}

func (o Options) ablationClients() int {
	n := o.Clients[len(o.Clients)-1]
	if n > 128 {
		n = 128
	}
	return n
}

// AblationBackoffN sweeps Algorithm 1's back-off window N (paper default 8).
func AblationBackoffN(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	clients := o.ablationClients()
	table := stats.NewTable("N", "kops", "mean_lat_us", "offload%", "serverCPU%")
	for _, n := range []int{1, 4, 8, 16, 64} {
		cfg, err := o.ablationConfig(cache, clients)
		if err != nil {
			return nil, err
		}
		cfg.N = n
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation N=%d: %w", n, err)
		}
		table.AddRow(fmt.Sprintf("%d", n), fmtKops(res.Kops), fmtDur(res.Latency.Mean),
			fmt.Sprintf("%.1f", res.OffloadFraction*100),
			fmt.Sprintf("%.1f", res.ServerCPUUtil*100))
	}
	return table, nil
}

// AblationThresholdT sweeps the busy threshold T (paper default 0.95).
func AblationThresholdT(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	clients := o.ablationClients()
	table := stats.NewTable("T", "kops", "mean_lat_us", "offload%", "serverCPU%")
	for _, t := range []float64{0.5, 0.8, 0.95, 0.99} {
		cfg, err := o.ablationConfig(cache, clients)
		if err != nil {
			return nil, err
		}
		cfg.T = t
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation T=%g: %w", t, err)
		}
		table.AddRow(fmt.Sprintf("%.2f", t), fmtKops(res.Kops), fmtDur(res.Latency.Mean),
			fmt.Sprintf("%.1f", res.OffloadFraction*100),
			fmt.Sprintf("%.1f", res.ServerCPUUtil*100))
	}
	return table, nil
}

// AblationHeartbeat sweeps the heartbeat interval (paper default 10 ms).
func AblationHeartbeat(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	clients := o.ablationClients()
	table := stats.NewTable("interval", "kops", "mean_lat_us", "offload%")
	for _, inv := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond} {
		cfg, err := o.ablationConfig(cache, clients)
		if err != nil {
			return nil, err
		}
		cfg.HeartbeatInv = inv
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation inv=%v: %w", inv, err)
		}
		table.AddRow(inv.String(), fmtKops(res.Kops), fmtDur(res.Latency.Mean),
			fmt.Sprintf("%.1f", res.OffloadFraction*100))
	}
	return table, nil
}

// AblationMultiIssueDepth sweeps the data QP send-queue depth bounding
// outstanding one-sided reads (1 = single-issue).
func AblationMultiIssueDepth(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("depth", "mean_lat_us", "kops")
	for _, depth := range []int{1, 2, 4, 16, 64} {
		res, err := cluster.Run(cluster.Config{
			Scheme:            cluster.SchemeOffloadMulti,
			PrebuiltTree:      tree,
			Workload:          searchMix(workload.UniformScale{Scale: 0.01}),
			NumClients:        1,
			RequestsPerClient: o.Requests,
			MultiIssueDepth:   depth,
			Seed:              o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation depth=%d: %w", depth, err)
		}
		table.AddRow(fmt.Sprintf("%d", depth), fmtDur(res.Latency.Mean), fmtKops(res.Kops))
	}
	return table, nil
}

// AblationRootCache compares offloaded traversal with and without the
// client-side root cache extension (heartbeat-versioned invalidation).
func AblationRootCache(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("root_cache", "mean_lat_us", "kops", "nodes_fetched")
	for _, cached := range []bool{false, true} {
		res, err := cluster.Run(cluster.Config{
			Scheme:            cluster.SchemeOffloadMulti,
			PrebuiltTree:      tree,
			Workload:          searchMix(workload.UniformScale{Scale: 0.00001}),
			NumClients:        8,
			RequestsPerClient: o.Requests,
			HeartbeatInv:      o.HeartbeatInv,
			CacheRoot:         cached,
			Seed:              o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation rootcache=%v: %w", cached, err)
		}
		table.AddRow(fmt.Sprintf("%v", cached), fmtDur(res.Latency.Mean),
			fmtKops(res.Kops), fmt.Sprintf("%d", res.NodesFetched))
	}
	return table, nil
}

// AblationNodeCache sweeps the capacity of the client-side version-
// validated node cache on the offload-heavy small-scope workload (capacity
// 0 is the seed behaviour: every internal node fetched on every search).
func AblationNodeCache(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("capacity", "mean_lat_us", "kops", "nodes_fetched",
		"reads_per_search", "hit%", "saved_MB")
	for _, capacity := range []int{0, 8, 64, 512} {
		res, err := cluster.Run(cluster.Config{
			Scheme:            cluster.SchemeOffloadMulti,
			PrebuiltTree:      tree,
			Workload:          searchMix(workload.UniformScale{Scale: 0.00001}),
			NumClients:        8,
			RequestsPerClient: o.Requests,
			HeartbeatInv:      o.HeartbeatInv,
			NodeCache:         capacity,
			Seed:              o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation nodecache=%d: %w", capacity, err)
		}
		hits := res.CacheHits + res.CacheVerified
		hitPct := 0.0
		if lookups := hits + res.CacheMisses; lookups > 0 {
			hitPct = 100 * float64(hits) / float64(lookups)
		}
		table.AddRow(fmt.Sprintf("%d", capacity), fmtDur(res.Latency.Mean),
			fmtKops(res.Kops), fmt.Sprintf("%d", res.NodesFetched),
			fmt.Sprintf("%.2f", res.OffloadReadsPerSearch),
			fmt.Sprintf("%.1f", hitPct),
			fmt.Sprintf("%.1f", float64(res.CacheBytesSaved)/(1<<20)))
	}
	return table, nil
}

// AblationPrefetch sweeps speculative prefetching and merged adjacent
// reads on the offload-heavy workload (DESIGN.md §5.9), in the two
// regimes the read path sees. Both run with the node cache sized to the
// internal levels and the paper's 10 ms heartbeat interval (the bench
// default of 2 ms quintuples the lease-mandated revalidation traffic and
// buries the demand floor the sweep is probing; pinned here because the
// interval is part of what the ablation measures, like the shards
// ablation's fixed tree size). "point" rows run small-scope queries at
// the default 4 KB chunk: demand traffic is ~one leaf per search and the
// question is the absolute WQE floor — the (off, span 1) row is the seed
// read path bit-for-bit and the full combination targets < 1.2 posted
// WQEs per offloaded search. "scan" rows run wide queries at a 1 KB
// chunk, where a search demands runs of dozens of preorder-adjacent
// leaves and the NIC is bound by per-message overhead rather than
// bandwidth — the regime where coalescing and revalidation-hinted
// speculation actually pay. Hits, waste, and the merge ratio are
// reported separately so the two mechanisms can be judged on their own.
func AblationPrefetch(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	items := newCache(o).uniformData()
	clients := o.ablationClients()
	table := stats.NewTable("workload", "prefetch", "span", "mean_lat_us", "p99_us",
		"kops", "wqes_per_search", "merge_ratio", "pf_hits", "pf_waste")
	regimes := []struct {
		name       string
		scale      float64
		chunk      int
		maxEntries int
		nodeCache  int
	}{
		{"point", 0.00001, 4096, 64, 512},
		{"scan", 0.05, 1024, 22, 1024},
	}
	for _, rg := range regimes {
		for _, pt := range []struct{ prefetch, span int }{
			{0, 1}, {0, 4}, {64, 1}, {64, 4}, {64, 8},
		} {
			res, err := cluster.Run(cluster.Config{
				Scheme:            cluster.SchemeOffloadMulti,
				Dataset:           items,
				Workload:          searchMix(workload.UniformScale{Scale: rg.scale}),
				NumClients:        clients,
				RequestsPerClient: o.Requests,
				HeartbeatInv:      10 * time.Millisecond,
				ChunkSize:         rg.chunk,
				MaxEntries:        rg.maxEntries,
				NodeCache:         rg.nodeCache,
				Prefetch:          pt.prefetch,
				MergeSpan:         pt.span,
				Seed:              o.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation prefetch=%d span=%d (%s): %w",
					pt.prefetch, pt.span, rg.name, err)
			}
			table.AddRow(rg.name, fmt.Sprintf("%d", pt.prefetch), fmt.Sprintf("%d", pt.span),
				fmtDur(res.Latency.Mean), fmtDur(res.Latency.P99), fmtKops(res.Kops),
				fmt.Sprintf("%.2f", res.OffloadWQEsPerSearch),
				fmt.Sprintf("%.2f", res.MergeRatio),
				fmt.Sprintf("%d", res.PrefetchHits),
				fmt.Sprintf("%d", res.PrefetchWaste))
		}
	}
	return table, nil
}

// AblationBatchSize sweeps the client batch size B under event-mode fast
// messaging at 32 connections. B=1 is bit-for-bit the unbatched system;
// larger batches amortize the per-request ring write, completion event,
// latch acquisition, and fixed dispatch cost across the batch.
func AblationBatchSize(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	tree, err := cache.uniformTree()
	if err != nil {
		return nil, err
	}
	clients := 32
	if o.Quick {
		clients = 8
	}
	table := stats.NewTable("B", "kops", "p50_us", "p99_us", "batches", "serverCPU%")
	for _, b := range []int{1, 4, 16, 64} {
		res, err := cluster.Run(cluster.Config{
			Scheme:            cluster.SchemeFastEvent,
			PrebuiltTree:      tree,
			Workload:          searchMix(workload.UniformScale{Scale: 0.00001}),
			NumClients:        clients,
			RequestsPerClient: o.Requests,
			BatchSize:         b,
			Seed:              o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation batch=%d: %w", b, err)
		}
		table.AddRow(fmt.Sprintf("%d", b), fmtKops(res.Kops),
			fmtDur(res.Latency.P50), fmtDur(res.Latency.P99),
			fmt.Sprintf("%d", res.Batches),
			fmt.Sprintf("%.1f", res.ServerCPUUtil*100))
	}
	return table, nil
}

// AblationPredictor compares the paper's most-recent-value utilization
// predictor with the EWMA extension under the saturated workload.
func AblationPredictor(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	clients := o.ablationClients()
	table := stats.NewTable("predictor", "kops", "mean_lat_us", "offload%")
	for _, alpha := range []float64{0, 0.3, 0.7} {
		cfg, err := o.ablationConfig(cache, clients)
		if err != nil {
			return nil, err
		}
		cfg.PredSmoothing = alpha
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation alpha=%g: %w", alpha, err)
		}
		name := "latest (paper)"
		if alpha > 0 {
			name = fmt.Sprintf("ewma a=%.1f", alpha)
		}
		table.AddRow(name, fmtKops(res.Kops), fmtDur(res.Latency.Mean),
			fmt.Sprintf("%.1f", res.OffloadFraction*100))
	}
	return table, nil
}

// AblationShards sweeps the shard count K of the spatially partitioned
// deployment (K=1 is bit for bit the single-server system). Each K
// partitions the dataset differently, so the runs share the dataset but
// each builds its shards' trees afresh — PrebuiltTree cannot be reused.
func AblationShards(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	clients := o.ablationClients()
	table := stats.NewTable("K", "kops", "mean_lat_us", "fanout", "offload%", "serverCPU%")
	for _, k := range []int{1, 2, 4, 8} {
		res, err := cluster.Run(cluster.Config{
			Scheme:            cluster.SchemeCatfish,
			Dataset:           cache.uniformData(),
			Workload:          searchMix(workload.UniformScale{Scale: 0.00001}),
			NumClients:        clients,
			RequestsPerClient: o.Requests,
			HeartbeatInv:      o.HeartbeatInv,
			Shards:            k,
			Seed:              o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation shards=%d: %w", k, err)
		}
		fanout := res.FanoutPerSearch
		if k <= 1 {
			fanout = 1 // single-server path: every search "targets" the one server
		}
		table.AddRow(fmt.Sprintf("%d", k), fmtKops(res.Kops), fmtDur(res.Latency.Mean),
			fmt.Sprintf("%.2f", fanout),
			fmt.Sprintf("%.1f", res.OffloadFraction*100),
			fmt.Sprintf("%.1f", res.ServerCPUUtil*100))
	}
	return table, nil
}

// AblationFetch compares the three access methods and both switch policies
// in the two regimes remote result fetching targets (DESIGN.md §5.10). The
// "large-scope" regime runs wide queries on the full-rate fabric: results
// dominate the server's send-engine traffic, and the fetch arm must move
// that payload onto the responder engine (readTX), cutting send-engine
// bytes per search well below the fast-messaging arm's. The "mixed" regime
// draws query scales from a power law spanning point lookups to wide scans
// and narrows the NIC to a fraction of line rate, so the send engine — not
// the CPU — saturates first: point lookups still favor fast messaging,
// wide scans drown the send engine, and offloaded traversal pays for every
// 4 KB node over the narrow wire. No static method wins both, which is
// exactly the case for the 3-way switch. The inline threshold is pinned low
// so result size, not the threshold, decides delivery; non-fetch arms
// ignore it.
func AblationFetch(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	items := newCache(o).uniformData()
	clients := o.ablationClients()
	table := stats.NewTable("workload", "scheme", "kops", "mean_lat_us",
		"sendTX_KB_per_op", "readTX_gbps", "fetch%", "offload%", "serverCPU%")
	// The mixed regime's fabric: InfiniBand timing with the line rate
	// narrowed so wide-scan result traffic saturates the send engine.
	narrow := netmodel.InfiniBand100G
	narrow.Name = "ib-narrow"
	narrow.BandwidthBps = 10e9
	regimes := []struct {
		name    string
		gen     workload.QueryGen
		profile netmodel.Profile
	}{
		{"large-scope", workload.UniformScale{Scale: 0.05}, netmodel.InfiniBand100G},
		{"mixed", workload.PowerLawScale{Min: 0.00001, Max: 0.05, Exponent: -0.5}, narrow},
	}
	arms := []struct {
		name   string
		scheme cluster.Scheme
	}{
		{"fastmsg", cluster.SchemeFastEvent},
		{"offload", cluster.SchemeOffloadMulti},
		{"fetch", cluster.SchemeFetch},
		{"catfish-2way", cluster.SchemeCatfish},
		{"catfish-3way", cluster.SchemeCatfish3},
	}
	for _, rg := range regimes {
		for _, arm := range arms {
			sch := arm.scheme
			sch.Profile = rg.profile
			res, err := cluster.Run(cluster.Config{
				Scheme:            sch,
				Dataset:           items,
				Workload:          searchMix(rg.gen),
				NumClients:        clients,
				RequestsPerClient: o.Requests,
				HeartbeatInv:      o.HeartbeatInv,
				FetchInlineMax:    16,
				Seed:              o.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation fetch %s/%s: %w", rg.name, arm.name, err)
			}
			sendBytes := res.ServerTXGbps * 1e9 / 8 * res.Makespan.Seconds()
			table.AddRow(rg.name, arm.name, fmtKops(res.Kops), fmtDur(res.Latency.Mean),
				fmt.Sprintf("%.2f", sendBytes/float64(res.Ops)/1024),
				fmt.Sprintf("%.2f", res.ServerReadTXGbps),
				fmt.Sprintf("%.1f", res.FetchFraction*100),
				fmt.Sprintf("%.1f", res.OffloadFraction*100),
				fmt.Sprintf("%.1f", res.ServerCPUUtil*100))
		}
	}
	return table, nil
}

// AblationChunkSize sweeps the region chunk size (node fan-out follows the
// chunk capacity), trading per-read bytes against tree height.
func AblationChunkSize(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	table := stats.NewTable("chunk_bytes", "fanout", "height", "offload_lat_us", "offload_kops")
	items := newCache(o).uniformData()
	for _, chunk := range []int{1024, 4096, 16384} {
		maxEntries := (chunk/64*56 - 16) / 40
		if maxEntries > 64 {
			maxEntries = 64
		}
		res, err := cluster.Run(cluster.Config{
			Scheme:            cluster.SchemeOffloadMulti,
			Dataset:           items,
			Workload:          searchMix(workload.UniformScale{Scale: 0.0001}),
			NumClients:        8,
			RequestsPerClient: o.Requests,
			ChunkSize:         chunk,
			MaxEntries:        maxEntries,
			Seed:              o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation chunk=%d: %w", chunk, err)
		}
		// Height is recomputed from the run's dataset size and fan-out.
		table.AddRow(fmt.Sprintf("%d", chunk), fmt.Sprintf("%d", maxEntries),
			"-", fmtDur(res.Latency.Mean), fmtKops(res.Kops))
	}
	return table, nil
}

// AblationFailover measures the cost of synchronous replication and the
// effect of a mid-run primary crash (DESIGN.md §5.11). R=1 is the
// unreplicated sharded baseline; R=2/R=3 pay one synchronous backup ack
// per write. The "kill" rows crash shard 0's primary mid-run: writes to
// that shard stall for at most one health window, the router promotes the
// highest-caught-up backup, and the post-run verification replays random
// queries against a brute-force ground truth including every acknowledged
// insert — zero lost acknowledged writes or the run fails.
func AblationFailover(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	cache := newCache(o)
	clients := o.ablationClients()
	table := stats.NewTable("R", "kill", "kops", "mean_lat_us", "promotions",
		"backup_reads", "repl_records", "skipped", "verified")
	for _, r := range []int{1, 2, 3} {
		for _, kill := range []bool{false, true} {
			if r == 1 && kill {
				continue // no backup to promote: an unreplicated crash is data loss
			}
			cfg := cluster.Config{
				Scheme:  cluster.SchemeCatfish,
				Dataset: cache.uniformData(),
				Workload: workload.NewMix(workload.UniformScale{Scale: 0.00001},
					workload.SkewedInserts{Edge: 0.0001}, 0.1, 1<<32),
				NumClients:        clients,
				RequestsPerClient: o.Requests,
				HeartbeatInv:      o.HeartbeatInv,
				Shards:            2,
				Replicas:          r,
				VerifyQueries:     40,
				Seed:              o.Seed,
			}
			if kill {
				cfg.FailAfter = 50 * time.Microsecond
				cfg.FailShard = 0
			}
			res, err := cluster.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation failover R=%d kill=%v: %w", r, kill, err)
			}
			table.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%v", kill),
				fmtKops(res.Kops), fmtDur(res.Latency.Mean),
				fmt.Sprintf("%d", res.Promotions),
				fmt.Sprintf("%d", res.BackupReads),
				fmt.Sprintf("%d", res.ReplRecords),
				fmt.Sprintf("%d", res.SkippedSearches),
				"ok")
		}
	}
	return table, nil
}
