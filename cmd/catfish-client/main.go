// Command catfish-client drives load against a catfish-server over real
// TCP, reporting throughput and latency percentiles:
//
//	catfish-client -addr 127.0.0.1:7373 -clients 8 -requests 10000
//	catfish-client -addr ... -method offload -multiissue
//	catfish-client -addr ... -adaptive -insert-fraction 0.1
//
// A comma-separated -addr list drives a sharded deployment through the
// scatter-gather router (addresses in shard order):
//
//	catfish-client -addr host0:7373,host1:7373,host2:7373,host3:7373
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	catfish "github.com/catfish-db/catfish"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7373", "server address, or comma-separated shard addresses in shard order")
		clients    = flag.Int("clients", 4, "concurrent client connections")
		requests   = flag.Int("requests", 2000, "requests per client")
		scale      = flag.Float64("scale", 0.001, "query scale (edges uniform in (0, scale])")
		method     = flag.String("method", "fast", "search method: fast | offload | fetch")
		adaptive   = flag.Bool("adaptive", false, "run Algorithm 1 (overrides -method)")
		fetch      = flag.Bool("fetch", false, "with -adaptive: enable the 3-way fetch branch")
		multiIssue = flag.Bool("multiissue", false, "pipeline offloaded chunk reads")
		nodeCache  = flag.Int("nodecache", 0, "node cache capacity in decoded internal nodes (0 = off)")
		prefetch   = flag.Int("prefetch", 0, "with -multiissue: speculatively extend offload span reads over preorder-adjacent subtrees, with a token bucket of N reads (0 = off)")
		mergeSpan  = flag.Int("merge-span", 0, "fold up to N adjacent chunk reads into one span round trip (0/1 = off)")
		insertFrac = flag.Float64("insert-fraction", 0, "fraction of requests that insert")
		batch      = flag.Int("batch", 1, "batch size B: coalesce B requests per frame (1 = unbatched)")
		seed       = flag.Int64("seed", 1, "random seed")
		maxConns   = flag.Int("max-conns", 0, "share at most N multiplexed TCP connections per server address across all workers (0 = one dedicated connection per worker)")
		deadline   = flag.Duration("deadline", 0, "per-operation latency budget; admission-controlled servers shed late ops (counted as overloaded, not errors)")
		healthMult = flag.Int("health-multiple", 0, "shard-liveness window in heartbeat intervals (0 = default 10); sharded runs only")
		backupsFl  = flag.String("backups", "", "per-shard backup addresses for failover and backup reads: semicolon-separated groups (one per shard, in shard order) of comma-separated addresses; empty groups allowed")

		metricsAddr = flag.String("metrics-addr", "", "admin HTTP listen address serving live /metrics, /traces, and /debug/pprof for this driver (empty disables)")
		traceCap    = flag.Int("trace-cap", 1024, "trace ring capacity for /traces")
		traceEvery  = flag.Int("trace-every", 1, "sample 1 in every N searches into the trace ring")
	)
	flag.Parse()

	// Optional live observability for the driver itself: one registry and
	// trace ring shared by all worker connections.
	var reg *catfish.Registry
	var tr *catfish.Tracer
	if *metricsAddr != "" {
		reg = catfish.NewRegistry()
		tr = catfish.NewTracer(*traceCap, *traceEvery)
		mux := catfish.NewAdminMux(reg, tr)
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	forced := rpcnet.MethodFast
	switch *method {
	case "fast":
	case "offload":
		forced = rpcnet.MethodOffload
	case "fetch":
		forced = rpcnet.MethodFetch
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	addrs := strings.Split(*addr, ",")
	var shardBackups [][]string
	if *backupsFl != "" {
		groups := strings.Split(*backupsFl, ";")
		if len(groups) != len(addrs) {
			return fmt.Errorf("-backups lists %d groups for %d shards", len(groups), len(addrs))
		}
		shardBackups = make([][]string, len(groups))
		for i, g := range groups {
			if g != "" {
				shardBackups[i] = strings.Split(g, ",")
			}
		}
	}

	// One shared pool bounds the process's TCP connections; workers attach
	// logical streams instead of dialing their own sockets.
	var pool *catfish.MuxPool
	if *maxConns > 0 {
		pool = catfish.NewMuxPool(*maxConns)
		defer pool.Close()
	}

	type result struct {
		hist       *stats.Histogram
		stats      catfish.ClientSnapshot
		router     catfish.ShardRouterStats
		overloaded int
		err        error
	}
	results := make([]result, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			hist := stats.NewHistogram()
			results[i].hist = hist
			ccfg := catfish.NetClientConfig{
				Adaptive:   *adaptive,
				Forced:     forced,
				Fetch:      *fetch || forced == rpcnet.MethodFetch,
				MultiIssue: *multiIssue,
				NodeCache:  *nodeCache,
				MergeSpan:  *mergeSpan,
				Prefetch:   *prefetch,
				Seed:       *seed + int64(i),
			}
			if reg != nil {
				// Each worker gets its own labelled view so per-connection
				// counters stay distinguishable on the scrape.
				ccfg.Metrics = reg.With("client", fmt.Sprint(i))
				ccfg.Trace = tr
			}
			ccfg.Deadline = *deadline
			// Connect resolves the shape: several addresses — or any
			// router-only option like backups — yield the scatter-gather
			// router, one address a direct client; the shared pool bounds
			// TCP connections either way.
			opts := []catfish.Option{catfish.WithClientConfig(ccfg)}
			if len(shardBackups) > 0 {
				opts = append(opts, catfish.WithBackups(shardBackups))
			}
			if *healthMult > 0 {
				opts = append(opts, catfish.WithHealthMultiple(*healthMult))
			}
			if pool != nil {
				opts = append(opts, catfish.WithMuxPool(pool))
			}
			c, err := catfish.Connect(addrs, opts...)
			if err != nil {
				results[i].err = err
				return
			}
			collect := func() {
				results[i].stats = results[i].stats.Add(c.Snapshot())
				if r, ok := c.(*catfish.NetRouter); ok {
					results[i].router = r.Stats()
				}
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(*seed + int64(i)*7919))
			nextOp := func(r int) rpcnet.BatchOp {
				if *insertFrac > 0 && rng.Float64() < *insertFrac {
					x, y := rng.Float64(), rng.Float64()
					return rpcnet.BatchOp{
						Type: wire.MsgInsert,
						Rect: catfish.NewRect(x, y, minf(x+1e-5, 1), minf(y+1e-5, 1)),
						Ref:  uint64(i)<<32 | uint64(r),
					}
				}
				w := rng.Float64() * *scale
				h := rng.Float64() * *scale
				x := rng.Float64() * (1 - w)
				y := rng.Float64() * (1 - h)
				return rpcnet.BatchOp{Type: wire.MsgSearch, Rect: catfish.NewRect(x, y, x+w, y+h)}
			}
			if *batch > 1 {
				ops := make([]rpcnet.BatchOp, 0, *batch)
				var bres []rpcnet.BatchResult
				for r := 0; r < *requests; {
					ops = ops[:0]
					for len(ops) < *batch && r < *requests {
						ops = append(ops, nextOp(r))
						r++
					}
					t0 := time.Now()
					bres = c.ExecBatch(ops, bres)
					elapsed := time.Since(t0)
					for _, br := range bres {
						if errors.Is(br.Err, rpcnet.ErrOverloaded) {
							results[i].overloaded++
							continue
						}
						if br.Err != nil {
							results[i].err = br.Err
							return
						}
						hist.Record(elapsed)
					}
				}
				collect()
				return
			}
			for r := 0; r < *requests; r++ {
				op := nextOp(r)
				t0 := time.Now()
				var err error
				if op.Type == wire.MsgInsert {
					err = c.Insert(op.Rect, op.Ref)
				} else {
					_, _, err = c.Search(op.Rect)
				}
				if errors.Is(err, rpcnet.ErrOverloaded) {
					// A typed shed is load feedback, not a failure: the
					// server is alive but refused the op within its
					// deadline.
					results[i].overloaded++
					continue
				}
				if err != nil {
					results[i].err = err
					return
				}
				hist.Record(time.Since(t0))
			}
			collect()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := stats.NewHistogram()
	var agg catfish.ClientSnapshot
	var rt catfish.ShardRouterStats
	overloaded := 0
	for i, r := range results {
		if r.err != nil {
			return fmt.Errorf("client %d: %w", i, r.err)
		}
		overloaded += r.overloaded
		total.Merge(r.hist)
		agg = agg.Add(r.stats)
		rt.Searches += r.router.Searches
		rt.Writes += r.router.Writes
		rt.Fanout += r.router.Fanout
		rt.Skipped += r.router.Skipped
		rt.UnhealthyWrites += r.router.UnhealthyWrites
		rt.Promotions += r.router.Promotions
		rt.BackupReads += r.router.BackupReads
		rt.MapAdoptions += r.router.MapAdoptions
	}
	s := total.Summarize()
	fmt.Printf("ops: %d in %v  =>  %.1f Kops\n", s.Count, elapsed.Round(time.Millisecond),
		float64(s.Count)/elapsed.Seconds()/1e3)
	fmt.Printf("latency: mean=%v p50=%v p95=%v p99=%v max=%v\n", s.Mean, s.P50, s.P95, s.P99, s.Max)
	if overloaded > 0 {
		fmt.Printf("overloaded: %d ops shed by admission control\n", overloaded)
	}
	if pool != nil {
		fmt.Printf("connections: %d TCP conns for %d logical clients (max %d per address)\n",
			pool.Conns(), *clients, *maxConns)
	}
	fmt.Printf("fast=%d offload=%d fetch=%d chunk reads=%d torn retries=%d\n",
		agg.FastSearches, agg.OffloadSearches, agg.FetchSearches, agg.NodesFetched, agg.TornRetries)
	if agg.FetchSearches > 0 {
		fmt.Printf("fetch: pulls=%d bytes=%d inline=%d retries=%d fallbacks=%d\n",
			agg.FetchPulls, agg.FetchBytes, agg.FetchInline, agg.FetchRetries, agg.FetchFallbacks)
	}
	if *batch > 1 {
		fmt.Printf("batches: %d containers carrying %d ops (B=%d)\n",
			agg.BatchesSent, agg.BatchedOps, *batch)
	}
	if *nodeCache > 0 {
		fmt.Printf("cache: hits=%d verified=%d misses=%d version reads=%d saved=%.1fMB\n",
			agg.CacheHits, agg.CacheVerifiedHits, agg.CacheMisses, agg.VersionReads,
			float64(agg.CacheBytesSaved)/1e6)
	}
	if *prefetch > 0 || *mergeSpan > 1 {
		ratio := 0.0
		if agg.ReadWQEs > 0 {
			ratio = float64(agg.NodesFetched+agg.VersionReads+agg.PrefetchIssued) / float64(agg.ReadWQEs)
		}
		fmt.Printf("prefetch: issued=%d hits=%d waste=%d  wqes=%d merge ratio=%.2f\n",
			agg.PrefetchIssued, agg.PrefetchHits, agg.PrefetchWaste, agg.ReadWQEs, ratio)
	}
	if len(addrs) > 1 && rt.Searches > 0 {
		fmt.Printf("shards: %d, fan-out/search=%.2f, skipped searches=%d, unhealthy writes=%d\n",
			len(addrs), float64(rt.Fanout)/float64(rt.Searches), rt.Skipped, rt.UnhealthyWrites)
	}
	if rt.Promotions > 0 || rt.BackupReads > 0 || rt.MapAdoptions > 0 {
		fmt.Printf("availability: promotions=%d backup reads=%d map adoptions=%d\n",
			rt.Promotions, rt.BackupReads, rt.MapAdoptions)
	}
	return nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
