package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
	"github.com/catfish-db/catfish/internal/workload"
)

// runSharded executes a K-shard deployment: the dataset is partitioned by
// the recursive longest-axis splitter, each shard gets its own server
// (host, CPU, NIC, region, tree, heartbeat stream), and every simulated
// client drives a shard.Router holding one connected client — and therefore
// one adaptive.Switch — per shard. Searches scatter to all shards whose
// coverage intersects the query and merge the partials; writes go to the
// unique owner.
func runSharded(cfg Config) (Result, error) {
	if cfg.PrebuiltTree != nil {
		return Result{}, errors.New("cluster: PrebuiltTree is incompatible with Shards > 1 (each K partitions the dataset differently)")
	}
	k := cfg.Shards

	smap, err := shard.Build(cfg.Dataset, shard.Config{K: k, MaxInsertEdge: cfg.Workload.Inserts.Edge})
	if err != nil {
		return Result{}, err
	}
	assign := smap.Assign(cfg.Dataset)

	e := sim.New(cfg.Seed)
	// Scheme is held by value; see the identical line in Run.
	cfg.Scheme.Profile.MergeSpan = cfg.MergeSpan
	net := fabric.NewNetwork(e, cfg.Scheme.Profile)

	// One full server stack per shard. Regions keep the single-server
	// insert headroom: ownership skew means one shard can absorb most of
	// the write stream. With Replicas > 1 each shard additionally gets
	// backup stacks bulk-loaded from the same partition; the primary's
	// Replicate hook keeps them synchronously updated under its write
	// latch, so an acknowledged write is always on every live backup.
	reps := cfg.Replicas
	if reps < 1 {
		reps = 1
	}
	serverCPUs := make([]*sim.CPU, k)
	serverHosts := make([]*fabric.Host, k)
	pollCPUs := make([]*sim.PollCPU, k)
	servers := make([]*server.Server, k)
	backupSrvs := make([][]*server.Server, k)
	buildStack := func(s int, name string, rep *replica.State,
		hook func(*sim.Proc, replica.Record) error) (*server.Server, *sim.CPU, *fabric.Host, *sim.PollCPU, error) {
		cpu := sim.NewCPU(e, cfg.ServerCores)
		host := net.NewHost(name, cpu)
		reg, err := region.New(cfg.regionChunks(), cfg.ChunkSize)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: cfg.MaxEntries})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if len(assign[s]) > 0 {
			data := append([]rtree.Entry(nil), assign[s]...)
			if err := tree.BulkLoad(data, 0); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("cluster: shard %d bulk load: %w", s, err)
			}
		}
		srvCfg := server.Config{
			Engine:           e,
			Host:             host,
			Tree:             tree,
			Cost:             cfg.Cost,
			Mode:             cfg.Scheme.ServerMode,
			RingSize:         cfg.RingSize,
			StagedNodeWrites: cfg.StagedWrites,
			Replica:          rep,
			Replicate:        hook,
		}
		if cfg.Scheme.Heartbeats {
			srvCfg.HeartbeatInterval = cfg.HeartbeatInv
		}
		if cfg.Scheme.fetchEnabled() {
			srvCfg.FetchSlots = cfg.FetchSlots
			srvCfg.FetchSlotChunks = cfg.FetchSlotChunks
			srvCfg.FetchInlineMax = cfg.FetchInlineMax
		}
		var pollCPU *sim.PollCPU
		if cfg.Scheme.ServerMode == server.ModePolling {
			pollCPU = sim.NewPollCPU(e, cfg.ServerCores, cfg.Cost.PollSlice)
			srvCfg.PollCPU = pollCPU
		}
		srv, err := server.New(srvCfg)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return srv, cpu, host, pollCPU, nil
	}
	for s := 0; s < k; s++ {
		var rep *replica.State
		var hook func(*sim.Proc, replica.Record) error
		if reps > 1 {
			s := s
			rep = replica.NewState(1, true)
			// The hook runs under the primary's exclusive latch before the
			// write is acknowledged. A killed backup is dropped from the
			// stream; a fencing rejection (the backup was promoted past us)
			// surfaces to the client, which never acks the write.
			hook = func(p *sim.Proc, rec replica.Record) error {
				var firstErr error
				for _, b := range backupSrvs[s] {
					if err := b.ApplyReplica(p, rec); err != nil {
						if errors.Is(err, replica.ErrUnavailable) {
							continue
						}
						if firstErr == nil {
							firstErr = err
						}
					}
				}
				return firstErr
			}
		}
		srv, cpu, host, pollCPU, err := buildStack(s, fmt.Sprintf("shard-%d", s), rep, hook)
		if err != nil {
			return Result{}, err
		}
		servers[s], serverCPUs[s], serverHosts[s], pollCPUs[s] = srv, cpu, host, pollCPU
		for b := 1; b < reps; b++ {
			bsrv, _, _, _, err := buildStack(s, fmt.Sprintf("shard-%d-backup-%d", s, b),
				replica.NewState(1, false), nil)
			if err != nil {
				return Result{}, err
			}
			backupSrvs[s] = append(backupSrvs[s], bsrv)
		}
	}

	numHosts := (cfg.NumClients + cfg.ClientsPerHost - 1) / cfg.ClientsPerHost
	hosts := make([]*fabric.Host, numHosts)
	for i := range hosts {
		hosts[i] = net.NewHost(fmt.Sprintf("client-host-%d", i), sim.NewCPU(e, cfg.ClientCores))
	}

	// Each simulated client connects to every shard (one client.Client per
	// shard, each with its own adaptive switch) and drives them through a
	// router.
	hbForHealth := time.Duration(0)
	if cfg.Scheme.Heartbeats {
		hbForHealth = cfg.HeartbeatInv
	}
	routers := make([]*shard.Router, cfg.NumClients)
	shardClients := make([][]*client.Client, cfg.NumClients)
	for i := 0; i < cfg.NumClients; i++ {
		host := hosts[i/cfg.ClientsPerHost]
		mkClient := func(srv *server.Server) (*client.Client, error) {
			ccfg := client.Config{
				Engine:        e,
				Host:          host,
				Cost:          cfg.Cost,
				Adaptive:      cfg.Scheme.Adaptive,
				Forced:        cfg.Scheme.Forced,
				MultiIssue:    cfg.Scheme.MultiIssue,
				N:             cfg.N,
				T:             cfg.T,
				HeartbeatInv:  cfg.HeartbeatInv,
				CacheRoot:     cfg.CacheRoot,
				NodeCache:     cfg.NodeCache,
				PredSmoothing: cfg.PredSmoothing,
				Prefetch:      cfg.Prefetch,
				Fetch:         cfg.Scheme.fetchEnabled(),
				TxT:           cfg.TxT,
			}
			if cfg.Scheme.TCP {
				ep, err := srv.ConnectTCP(host, net)
				if err != nil {
					return nil, err
				}
				ccfg.Endpoint = ep
			} else {
				ep, err := srv.Connect(host, net, cfg.MultiIssueDepth)
				if err != nil {
					return nil, err
				}
				ccfg.Endpoint = ep
			}
			return client.New(ccfg)
		}
		cs := make([]*client.Client, k)
		var bcs [][]*client.Client
		if reps > 1 {
			bcs = make([][]*client.Client, k)
		}
		for s := 0; s < k; s++ {
			c, err := mkClient(servers[s])
			if err != nil {
				return Result{}, err
			}
			cs[s] = c
			for _, bsrv := range backupSrvs[s] {
				bc, err := mkClient(bsrv)
				if err != nil {
					return Result{}, err
				}
				bcs[s] = append(bcs[s], bc)
			}
		}
		shardClients[i] = cs
		routers[i], err = shard.NewRouter(shard.RouterConfig{
			Engine:            e,
			Map:               smap,
			Clients:           cs,
			HeartbeatInterval: hbForHealth,
			HealthMultiple:    cfg.HealthMultiple,
			Backups:           bcs,
		})
		if err != nil {
			return Result{}, err
		}
	}

	searchLat := stats.NewHistogram()
	insertLat := stats.NewHistogram()
	var ops uint64
	var makespan time.Duration
	var runErr error
	wg := sim.NewWaitGroup(e)

	// Per-driver acknowledged inserts, recorded only when the post-run
	// equivalence check is armed: an acked write that a later search cannot
	// find is a lost write.
	var acked [][]rtree.Entry
	if cfg.VerifyQueries > 0 {
		acked = make([][]rtree.Entry, cfg.NumClients)
	}

	for i := range routers {
		i, r := i, routers[i]
		wg.Add(1)
		e.Spawn(fmt.Sprintf("driver-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			mix := *cfg.Workload
			if cfg.BatchSize >= 1 {
				batch := make([]client.BatchOp, 0, cfg.BatchSize)
				results := make([]client.BatchResult, 0, cfg.BatchSize)
				for req := 0; req < cfg.RequestsPerClient; {
					batch = batch[:0]
					for len(batch) < cfg.BatchSize && req < cfg.RequestsPerClient {
						op := mix.Next(rng)
						if op.Type == workload.OpInsert {
							batch = append(batch, client.BatchOp{
								Type: wire.MsgInsert, Rect: op.Rect, Ref: op.Ref + uint64(i)<<32})
						} else {
							batch = append(batch, client.BatchOp{Type: wire.MsgSearch, Rect: op.Rect})
						}
						req++
					}
					start := p.Now()
					results = r.On(p).ExecBatch(batch, results)
					elapsed := p.Now() - start
					for j := range results {
						if err := results[j].Err; err != nil {
							runErr = fmt.Errorf("client %d batched op: %w", i, err)
							return
						}
						if batch[j].Type == wire.MsgInsert {
							insertLat.Record(elapsed)
							if acked != nil {
								acked[i] = append(acked[i], rtree.Entry{Rect: batch[j].Rect, Ref: batch[j].Ref})
							}
						} else {
							searchLat.Record(elapsed)
						}
					}
					ops += uint64(len(batch))
					if p.Now() > makespan {
						makespan = p.Now()
					}
				}
				return
			}
			for req := 0; req < cfg.RequestsPerClient; req++ {
				op := mix.Next(rng)
				start := p.Now()
				switch op.Type {
				case workload.OpInsert:
					if err := r.On(p).Insert(op.Rect, op.Ref+uint64(i)<<32); err != nil {
						runErr = fmt.Errorf("client %d insert: %w", i, err)
						return
					}
					insertLat.Record(p.Now() - start)
					if acked != nil {
						acked[i] = append(acked[i], rtree.Entry{Rect: op.Rect, Ref: op.Ref + uint64(i)<<32})
					}
				default:
					if _, _, err := r.On(p).Search(op.Rect); err != nil {
						runErr = fmt.Errorf("client %d search: %w", i, err)
						return
					}
					searchLat.Record(p.Now() - start)
				}
				ops++
				if p.Now() > makespan {
					makespan = p.Now()
				}
			}
		})
	}
	if cfg.FailAfter > 0 {
		e.Spawn("fault-injector", func(p *sim.Proc) {
			p.Sleep(cfg.FailAfter)
			servers[cfg.FailShard].Kill()
		})
	}
	e.Spawn("coordinator", func(p *sim.Proc) {
		wg.Wait(p)
		if runErr == nil && cfg.VerifyQueries > 0 {
			want := append([]rtree.Entry(nil), cfg.Dataset...)
			for _, a := range acked {
				want = append(want, a...)
			}
			runErr = verifySharded(p, routers[0], cfg, want)
		}
		p.Engine().Stop()
	})
	if err := e.Run(); err != nil {
		return Result{}, err
	}
	if runErr != nil {
		return Result{}, runErr
	}

	res := Result{
		Scheme:    cfg.Scheme.Name,
		Clients:   cfg.NumClients,
		Ops:       ops,
		Makespan:  makespan,
		Latency:   searchLat.Summarize(),
		InsertLat: insertLat.Summarize(),
	}
	if makespan > 0 {
		res.Kops = float64(ops) / makespan.Seconds() / 1e3
	}

	// Per-shard split plus the single-server-shaped aggregates: server
	// stats summed, CPU utilization averaged, NIC bandwidth summed.
	var aggAll telemetry.ClientSnapshot
	res.PerShard = make([]ShardResult, k)
	for s := 0; s < k; s++ {
		st := servers[s].Stats()
		sr := ShardResult{
			Shard:   s,
			Entries: len(assign[s]),
			Ops:     st.Searches + st.Inserts + st.Deletes,
		}
		if makespan > 0 {
			sr.TXGbps = serverHosts[s].TXGbps(makespan)
			sr.ReadTXGbps = serverHosts[s].ReadTXGbps(makespan)
			sr.RXGbps = serverHosts[s].RXGbps(makespan)
		}
		if cfg.Scheme.ServerMode == server.ModePolling {
			sr.CPUUtil = 1.0
			res.ServerUsefulCPU += pollCPUs[s].UsefulUtilizationTotal() / float64(k)
		} else {
			sr.CPUUtil = serverCPUs[s].UtilizationTotal()
		}
		var agg telemetry.ClientSnapshot
		for i := range shardClients {
			agg = agg.Add(shardClients[i][s].Stats())
		}
		sr.Client = agg
		sr.OffloadFraction = agg.OffloadFraction()
		aggAll = aggAll.Add(agg)

		res.ServerStats.Searches += st.Searches
		res.ServerStats.Inserts += st.Inserts
		res.ServerStats.Deletes += st.Deletes
		res.ServerStats.Results += st.Results
		res.ServerStats.Heartbeat += st.Heartbeat
		res.ServerStats.Segments += st.Segments
		res.ServerStats.Batches += st.Batches
		res.ServerStats.BatchedOps += st.BatchedOps
		res.ServerStats.FetchSearches += st.FetchSearches
		res.ServerStats.FetchInline += st.FetchInline
		res.ServerStats.FetchBytes += st.FetchBytes
		res.ServerCPUUtil += sr.CPUUtil / float64(k)
		res.ServerTXGbps += sr.TXGbps
		res.ServerReadTXGbps += sr.ReadTXGbps
		res.ServerRXGbps += sr.RXGbps
		res.PerShard[s] = sr
	}
	if cfg.Scheme.ServerMode != server.ModePolling {
		res.ServerUsefulCPU = res.ServerCPUUtil
	}
	res.applyClientSnapshot(aggAll)

	// Router-level routing counters.
	var searches, fanout uint64
	for _, r := range routers {
		rs := r.Stats()
		searches += rs.Searches
		fanout += rs.Fanout
		res.SkippedSearches += rs.Skipped
		res.UnhealthyWrites += rs.UnhealthyWrites
		res.Promotions += rs.Promotions
		res.BackupReads += rs.BackupReads
	}
	for s := range backupSrvs {
		for _, b := range backupSrvs[s] {
			res.ReplRecords += b.Stats().ReplRecords
		}
	}
	if searches > 0 {
		res.FanoutPerSearch = float64(fanout) / float64(searches)
	}
	return res, nil
}

// verifySharded replays VerifyQueries random range queries through r and
// compares every merged result against a brute-force scan of want — the
// post-failover ground-truth equivalence check: each acknowledged write
// must be visible, and nothing else.
func verifySharded(p *sim.Proc, r *shard.Router, cfg Config, want []rtree.Entry) error {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7ef1ca))
	mix := *cfg.Workload
	done := 0
	for attempts := 0; done < cfg.VerifyQueries && attempts < cfg.VerifyQueries*100; attempts++ {
		op := mix.Next(rng)
		if op.Type != workload.OpSearch {
			continue
		}
		done++
		items, _, err := r.On(p).Search(op.Rect)
		if err != nil {
			return fmt.Errorf("cluster: verify query %d: %w", done, err)
		}
		got := make(map[uint64]int, len(items))
		for _, it := range items {
			got[it.Ref]++
		}
		n := 0
		for _, e := range want {
			if e.Rect.Intersects(op.Rect) {
				n++
				if got[e.Ref] == 0 {
					return fmt.Errorf("cluster: verify query %d: ref %#x missing — acknowledged write lost", done, e.Ref)
				}
				got[e.Ref]--
			}
		}
		if len(items) != n {
			return fmt.Errorf("cluster: verify query %d: %d items, brute force says %d", done, len(items), n)
		}
	}
	return nil
}
