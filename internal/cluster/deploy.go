package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
	"github.com/catfish-db/catfish/internal/workload"
)

// Ops is the operation surface a driver sees: the methods a bound client
// (client.Handle) and a bound router (shard.Core) share.
type Ops interface {
	Search(q geo.Rect) ([]wire.Item, client.Method, error)
	Insert(r geo.Rect, ref uint64) error
	Delete(r geo.Rect, ref uint64) error
	Move(from, to geo.Rect, ref uint64) error
	Nearest(k int, x, y float64) ([]rtree.Neighbor, client.Method, error)
	ExecBatch(ops []client.BatchOp, results []client.BatchResult) []client.BatchResult
}

// stack is one server and the resources its share of the result is read
// from.
type stack struct {
	srv  *server.Server
	cpu  *sim.CPU
	host *fabric.Host
	poll *sim.PollCPU // nil in event mode
}

// Deployment is one simulated Catfish installation: K primaries with R−1
// backups each, the client hosts, and per simulated client one connected
// client.Client per server plus, at K > 1, the shard.Router over them.
// Every sim experiment builds through Deploy, drives its clients through
// Drive and reads the measurements from Result (DESIGN.md §5.18). It is
// also an autoscale.Scraper and Actuator: Split grows it by live splits.
type Deployment struct {
	cfg Config
	e   *sim.Engine
	// smap is nil at Shards <= 1 until a first split: the one server owns
	// everything and the drivers hold its clients directly.
	smap    *shard.Map
	assign  [][]rtree.Entry // dataset entries per shard
	shards  []stack
	backups [][]*server.Server
	clients [][]*client.Client // [client][shard]
	routers []*shard.Router    // one per client; nil at Shards <= 1

	// What a split builds with (elastic.go).
	build     func(s int, name string, rep *replica.State) (stack, error)
	connect   func(host *fabric.Host, srv *server.Server) (*client.Client, error)
	newRouter func(i int, m *shard.Map, bcs [][]*client.Client) (*shard.Router, error)
	hosts     []*fabric.Host
	splitting bool  // a split runs and has not drained yet
	splitErr  error // the first failed split, returned by Drive

	ops      uint64
	makespan time.Duration
}

// Deploy builds the deployment cfg describes. The dataset is partitioned by
// the recursive longest-axis splitter; each shard gets its own server stack
// (host, CPU, NIC, region, tree, heartbeat stream) and, with Replicas > 1,
// backup stacks bulk-loaded from the same partition that the primary's
// replication core keeps synchronously updated under its write latch, so an
// acknowledged write is always on every live backup. Objects are created in
// one fixed order — servers (each primary, then its backups), client hosts,
// then per client its connections shard by shard and its router — because
// creation order is spawn order, and spawn order decides every same-instant
// tie in the event sequence.
func Deploy(cfg Config) (*Deployment, error) {
	cfg.applyDefaults()
	sharded := cfg.Shards > 1
	k, reps := max(cfg.Shards, 1), max(cfg.Replicas, 1)
	switch {
	case sharded && cfg.PrebuiltTree != nil:
		return nil, errors.New("cluster: PrebuiltTree is incompatible with Shards > 1 (each K partitions the dataset differently)")
	case !sharded && (cfg.Replicas > 1 || cfg.FailAfter > 0 || cfg.VerifyQueries > 0):
		return nil, errors.New("cluster: Replicas, FailAfter and VerifyQueries need Shards > 1")
	case cfg.FailAfter > 0 && (cfg.FailShard < 0 || cfg.FailShard >= k):
		return nil, fmt.Errorf("cluster: FailShard %d outside the %d shards", cfg.FailShard, k)
	}

	e := sim.New(cfg.Seed)
	cost := netmodel.DefaultCostModel()
	d := &Deployment{cfg: cfg, e: e, assign: [][]rtree.Entry{cfg.Dataset}}
	if sharded {
		smap, err := cfg.shardMap(k)
		if err != nil {
			return nil, err
		}
		d.smap, d.assign = smap, smap.Assign(cfg.Dataset)
	}

	// Scheme is held by value, so widening the merge span here never leaks
	// into the shared scheme definitions.
	cfg.Scheme.Profile.MergeSpan = cfg.MergeSpan
	net := fabric.NewNetwork(e, cfg.Scheme.Profile)

	// Regions keep the whole-dataset insert headroom on every shard:
	// ownership skew means one shard can absorb most of the write stream.
	d.build = func(s int, name string, rep *replica.State) (stack, error) {
		st := stack{cpu: sim.NewCPU(e, cfg.ServerCores)}
		st.host = net.NewHost(name, st.cpu)
		tree := cfg.PrebuiltTree
		if tree != nil {
			// The previous run's server may have left its staged publisher
			// installed; restore the default before re-serving.
			tree.SetPublisher(nil)
		} else {
			reg, err := region.New(cfg.regionChunks(), cfg.ChunkSize)
			if err != nil {
				return st, err
			}
			if tree, err = rtree.New(reg, rtree.Config{MaxEntries: cfg.MaxEntries}); err != nil {
				return st, err
			}
			if len(d.assign[s]) > 0 {
				data := append([]rtree.Entry(nil), d.assign[s]...)
				if err := tree.BulkLoad(data, 0); err != nil {
					return st, fmt.Errorf("cluster: shard %d bulk load: %w", s, err)
				}
			}
		}
		srvCfg := server.Config{
			Engine:           e,
			Host:             st.host,
			Tree:             tree,
			Cost:             cost,
			Mode:             cfg.Scheme.ServerMode,
			StagedNodeWrites: cfg.StagedWrites,
			Replica:          rep,
		}
		if cfg.Scheme.Heartbeats {
			srvCfg.HeartbeatInterval = cfg.HeartbeatInv
		}
		if cfg.Scheme.fetchEnabled() {
			srvCfg.FetchSlots = cfg.FetchSlots
			srvCfg.FetchInlineMax = cfg.FetchInlineMax
		}
		if cfg.Scheme.ServerMode == server.ModePolling {
			st.poll = sim.NewPollCPU(e, cfg.ServerCores, cost.PollSlice)
			srvCfg.PollCPU = st.poll
		}
		var err error
		st.srv, err = server.New(srvCfg)
		return st, err
	}
	d.shards = make([]stack, k)
	d.backups = make([][]*server.Server, k)
	for s := range d.shards {
		var rep *replica.State
		if reps > 1 {
			rep = replica.NewState(1, true)
		}
		var err error
		if d.shards[s], err = d.build(s, fmt.Sprintf("shard-%d", s), rep); err != nil {
			return nil, err
		}
		for b := 1; b < reps; b++ {
			st, err := d.build(s, fmt.Sprintf("shard-%d-backup-%d", s, b), replica.NewState(1, false))
			if err != nil {
				return nil, err
			}
			d.backups[s] = append(d.backups[s], st.srv)
		}
		// The primary ships to its backups through the replication core,
		// under its exclusive latch, before a write is acknowledged. The
		// backups themselves get no peers, so a promoted one ships to nobody.
		pr := d.shards[s].srv
		for _, b := range d.backups[s] {
			pr.Replication().Attach(pr.Peer(b))
		}
		if sharded {
			for _, srv := range append(d.backups[s], pr) {
				srv.SetShard(d.smap, s)
			}
		}
	}

	// Client hosts: ClientsPerHost clients share each 28-core machine (the
	// paper's 2x14-core Broadwell nodes).
	d.hosts = make([]*fabric.Host, (cfg.NumClients+cfg.ClientsPerHost-1)/cfg.ClientsPerHost)
	for i := range d.hosts {
		d.hosts[i] = net.NewHost(fmt.Sprintf("client-host-%d", i), sim.NewCPU(e, 28))
	}
	d.connect = func(host *fabric.Host, srv *server.Server) (*client.Client, error) {
		var ep *server.Endpoint
		var err error
		if cfg.Scheme.TCP {
			ep, err = srv.ConnectTCP(host, net)
		} else {
			ep, err = srv.Connect(host, net, cfg.MultiIssueDepth)
		}
		if err != nil {
			return nil, err
		}
		return client.New(client.Config{
			Engine:        e,
			Host:          host,
			Endpoint:      ep,
			Cost:          cost,
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
		})
	}
	// Each simulated client connects to every shard — one client.Client, and
	// therefore one adaptive switch, per server — and at K > 1 drives them
	// through a router.
	var hbForHealth time.Duration
	if cfg.Scheme.Heartbeats {
		hbForHealth = cfg.HeartbeatInv
	}
	d.newRouter = func(i int, m *shard.Map, bcs [][]*client.Client) (*shard.Router, error) {
		return shard.NewRouter(shard.RouterConfig{
			Engine:            e,
			Map:               m,
			Clients:           d.clients[i],
			HeartbeatInterval: hbForHealth,
			Backups:           bcs,
		})
	}
	d.clients = make([][]*client.Client, cfg.NumClients)
	if sharded {
		d.routers = make([]*shard.Router, cfg.NumClients)
	}
	for i := range d.clients {
		host := d.hosts[i/cfg.ClientsPerHost]
		cs := make([]*client.Client, k)
		bcs := make([][]*client.Client, k)
		for s := range cs {
			var err error
			if cs[s], err = d.connect(host, d.shards[s].srv); err != nil {
				return nil, err
			}
			for _, b := range d.backups[s] {
				bc, err := d.connect(host, b)
				if err != nil {
					return nil, err
				}
				bcs[s] = append(bcs[s], bc)
			}
		}
		d.clients[i] = cs
		if !sharded {
			continue
		}
		var err error
		if d.routers[i], err = d.newRouter(i, d.smap, bcs); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// shardMap partitions the dataset into k cells, the pads widened for the
// workload's inserts.
func (c *Config) shardMap(k int) (*shard.Map, error) {
	scfg := shard.Config{K: k}
	if c.Workload != nil {
		scfg.MaxInsertEdge = c.Workload.Inserts.Edge
	}
	return shard.Build(c.Dataset, scfg)
}

// On returns client i's operations bound to the process p that drives them:
// its router at Shards > 1, and at Shards <= 1 the one server's client
// itself, so a single-server run has no routing layer in its timeline.
func (d *Deployment) On(i int, p *sim.Proc) Ops {
	if d.routers != nil {
		return d.routers[i].On(p)
	}
	return d.clients[i][0].On(p)
}

// Count records that n operations completed at p's current time; Result
// reports their total and the latest completion as the makespan.
func (d *Deployment) Count(p *sim.Proc, n int) {
	d.ops += uint64(n)
	d.makespan = max(d.makespan, p.Now())
}

// Drive runs the experiment: one driver process per client, the fault
// injector when FailAfter is set, and a coordinator that waits for every
// driver, runs after (nil for none) if they all succeeded, and stops the
// engine. It returns the first error.
func (d *Deployment) Drive(driver func(i int, p *sim.Proc) error, after func(p *sim.Proc) error) error {
	var runErr error
	wg := sim.NewWaitGroup(d.e)
	for i := range d.clients {
		wg.Add(1)
		d.e.Spawn(fmt.Sprintf("driver-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			if err := driver(i, p); err != nil && runErr == nil {
				runErr = fmt.Errorf("client %d: %w", i, err)
			}
		})
	}
	if d.cfg.FailAfter > 0 {
		d.e.Spawn("fault-injector", func(p *sim.Proc) {
			p.Sleep(d.cfg.FailAfter)
			d.shards[d.cfg.FailShard].srv.Kill()
		})
	}
	d.e.Spawn("coordinator", func(p *sim.Proc) {
		wg.Wait(p)
		if runErr == nil && after != nil {
			runErr = after(p)
		}
		p.Engine().Stop()
	})
	if err := d.e.Run(); err != nil {
		return err
	}
	if runErr == nil {
		runErr = d.splitErr
	}
	return runErr
}

// Result rolls the run up: one row per shard — of which a single server is
// the K = 1 case — with server stats summed, CPU utilization averaged and
// NIC bandwidth summed into the deployment-wide figures, then the router
// counters and the backups' replication count.
func (d *Deployment) Result() Result {
	k := float64(len(d.shards))
	polling := d.cfg.Scheme.ServerMode == server.ModePolling
	res := Result{
		Scheme:   d.cfg.Scheme.Name,
		Clients:  d.cfg.NumClients,
		Ops:      d.ops,
		Makespan: d.makespan,
	}
	if d.makespan > 0 {
		res.Kops = float64(d.ops) / d.makespan.Seconds() / 1e3
	}
	var aggAll telemetry.ClientSnapshot
	rows := make([]ShardResult, len(d.shards))
	for s, st := range d.shards {
		stats := st.srv.Stats()
		sr := ShardResult{
			Shard:   s,
			Entries: len(d.assign[s]),
			Ops:     stats.Searches + stats.Inserts + stats.Deletes,
		}
		if d.makespan > 0 {
			sr.TXGbps = st.host.TXGbps(d.makespan)
			sr.ReadTXGbps = st.host.ReadTXGbps(d.makespan)
			sr.RXGbps = st.host.RXGbps(d.makespan)
		}
		if polling {
			sr.CPUUtil = 1.0
			res.ServerUsefulCPU += st.poll.UsefulUtilizationTotal() / k
		} else {
			sr.CPUUtil = st.cpu.UtilizationTotal()
		}
		for _, cs := range d.clients {
			sr.Client = sr.Client.Add(cs[s].Stats())
		}
		sr.OffloadFraction = sr.Client.OffloadFraction()
		aggAll = aggAll.Add(sr.Client)

		res.ServerStats = res.ServerStats.Add(stats)
		res.ServerCPUUtil += sr.CPUUtil / k
		res.ServerTXGbps += sr.TXGbps
		res.ServerReadTXGbps += sr.ReadTXGbps
		res.ServerRXGbps += sr.RXGbps
		rows[s] = sr
	}
	if !polling {
		res.ServerUsefulCPU = res.ServerCPUUtil
	}
	if d.smap != nil {
		res.PerShard = rows
	}
	res.applyClientSnapshot(aggAll)

	var reads, fanout uint64
	for _, r := range d.routers {
		rs := r.Stats()
		reads += rs.Searches + rs.KNNs
		fanout += rs.Fanout
		res.SkippedSearches += rs.Skipped
		res.UnhealthyWrites += rs.UnhealthyWrites
		res.Promotions += rs.Promotions
		res.BackupReads += rs.BackupReads
	}
	if reads > 0 {
		res.FanoutPerSearch = float64(fanout) / float64(reads)
	}
	for _, bs := range d.backups {
		for _, b := range bs {
			res.ReplRecords += b.Stats().ReplRecords
		}
	}
	return res
}

// verifySharded replays VerifyQueries random range queries through ops and
// compares every merged result against a brute-force scan of want — the
// post-failover ground-truth equivalence check: each acknowledged write
// must be visible, and nothing else.
func verifySharded(ops Ops, cfg Config, want []rtree.Entry) error {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7ef1ca))
	mix := *cfg.Workload
	done := 0
	for attempts := 0; done < cfg.VerifyQueries && attempts < cfg.VerifyQueries*100; attempts++ {
		op := mix.Next(rng)
		if op.Type != workload.OpSearch {
			continue
		}
		done++
		items, _, err := ops.Search(op.Rect)
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
