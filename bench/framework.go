package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/fabric"
	"github.com/catfish-db/catfish/internal/kv"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/stats"
)

// Framework runs the §VI generality experiment: the same fast-messaging /
// offloading / adaptive triad serving a B+-tree key-value store instead of
// an R-tree, under a saturated-server point-lookup workload. The expected
// shape mirrors Fig 10a: fast messaging plateaus at the server CPU,
// offloading rides the NIC, and the adaptive client beats both.
func Framework(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	keys := o.DatasetSize
	if keys > 500_000 {
		keys = 500_000
	}
	clients := o.ablationClients()
	table := stats.NewTable("kv_mode", "kops", "mean_lat_us", "offload%", "serverCPU%")
	for _, mode := range []string{"fast", "offload", "adaptive"} {
		res, err := runKV(o, keys, clients, mode)
		if err != nil {
			return nil, fmt.Errorf("framework %s: %w", mode, err)
		}
		table.AddRow(mode, fmtKops(res.kops), fmtDur(res.meanLat),
			fmt.Sprintf("%.1f", res.offloadFrac*100),
			fmt.Sprintf("%.1f", res.cpuUtil*100))
	}
	return table, nil
}

type kvResult struct {
	kops        float64
	meanLat     time.Duration
	offloadFrac float64
	cpuUtil     float64
}

func runKV(o Options, keys, clients int, mode string) (kvResult, error) {
	e := sim.New(o.Seed)
	net := fabric.NewNetwork(e, netmodel.InfiniBand100G)
	serverCPU := sim.NewCPU(e, 28) // the paper's dual 14-core Broadwell
	serverHost := net.NewHost("server", serverCPU)

	perNode := 100
	reg, err := region.New(keys/perNode*4+4096, 4096)
	if err != nil {
		return kvResult{}, err
	}
	tree, err := btree.New(reg, btree.Config{})
	if err != nil {
		return kvResult{}, err
	}
	for k := 0; k < keys; k++ {
		if err := tree.Insert(uint64(k), uint64(k)); err != nil {
			return kvResult{}, err
		}
	}
	srv, err := server.New(server.Config{
		Engine: e, Host: serverHost, Tree: kv.NewStore(tree),
		Cost:              netmodel.DefaultCostModel(),
		HeartbeatInterval: o.HeartbeatInv,
	})
	if err != nil {
		return kvResult{}, err
	}

	lat := stats.NewHistogram()
	var ops uint64
	var makespan time.Duration
	var runErr error
	wg := sim.NewWaitGroup(e)
	kvClients := make([]*kv.Client, clients)
	for i := range kvClients {
		host := net.NewHost(fmt.Sprintf("c%d", i/32), sim.NewCPU(e, 28))
		ep, err := srv.Connect(host, net, 16)
		if err != nil {
			return kvResult{}, err
		}
		cfg := kv.ClientConfig{
			Engine: e, Host: host, Endpoint: ep,
			Cost:         netmodel.DefaultCostModel(),
			HeartbeatInv: o.HeartbeatInv,
		}
		switch mode {
		case "fast":
			cfg.Forced = kv.MethodFast
		case "offload":
			cfg.Forced = kv.MethodOffload
		default:
			cfg.Adaptive = true
		}
		c, err := kv.NewClient(cfg)
		if err != nil {
			return kvResult{}, err
		}
		kvClients[i] = c
	}
	for i, c := range kvClients {
		i, c := i, c
		wg.Add(1)
		e.Spawn(fmt.Sprintf("kv-driver-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(i)*977))
			for r := 0; r < o.Requests; r++ {
				start := p.Now()
				k := uint64(rng.Intn(keys))
				if _, _, err := c.Get(p, k); err != nil {
					runErr = err
					return
				}
				lat.Record(p.Now() - start)
				ops++
				if p.Now() > makespan {
					makespan = p.Now()
				}
			}
		})
	}
	e.Spawn("stop", func(p *sim.Proc) { wg.Wait(p); e.Stop() })
	if err := e.Run(); err != nil {
		return kvResult{}, err
	}
	if runErr != nil {
		return kvResult{}, runErr
	}
	var fast, off uint64
	for _, c := range kvClients {
		st := c.Stats()
		fast += st.FastSearches
		off += st.OffloadSearches
	}
	out := kvResult{
		meanLat: lat.Summarize().Mean,
		cpuUtil: serverCPU.UtilizationTotal(),
	}
	if makespan > 0 {
		out.kops = float64(ops) / makespan.Seconds() / 1e3
	}
	if fast+off > 0 {
		out.offloadFrac = float64(off) / float64(fast+off)
	}
	return out, nil
}
