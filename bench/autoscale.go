package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/stats"
)

// The autoscale and hotspot ablations run live splits on the simulated
// fabric (DESIGN.md §5.12): every shard is a server with its own CPU, the
// autoscaler reads the utilization each server's heartbeat publishes, and
// a split runs the same prepare, dual-write, commit and drain as over TCP.
// The servers have two cores each and the clients are forced to fast
// messaging, so server CPU is the resource a hot shard runs out of and a
// split adds. The workload is spatially skewed: a static map splits the
// plane by entry count, so a hot district stays inside one cell at every
// K, while the autoscaler subdivides exactly the cells that run hot.
//
// The ablations' fleet: closed-loop loaders, and cores per server.
const elasticLoaders, elasticCores = 16, 2

// peakPause is a loader's think time at the peak, from the cost model like
// the SLO: the pause at which the loaders' fixed search demand, spread
// evenly, holds four servers (both sweeps' largest static K) at the 0.7
// scale-up threshold: 16 × 35 µs / (4 × 2 × 0.7) = 100 µs. With no pause,
// 16 closed loops keep 16 operations in flight at any shard count.
var peakPause = elasticLoaders * netmodel.DefaultCostModel().SearchFixed * 10 / (4 * elasticCores * 7)

// diurnalPhases is the replayed day: fraction of operations per phase, the
// probability an operation targets the hot district, and each loader's
// think time between operations. Night and evening think long enough to
// keep every server under the scale-up threshold, so splits fire only
// while the hot district is the bottleneck.
var diurnalPhases = []struct {
	frac, hot float64
	pause     time.Duration
}{
	{0.15, 0.05, 2 * time.Millisecond},   // night: light, uniform
	{0.20, 0.45, peakPause},              // morning ramp
	{0.45, 0.95, peakPause},              // midday peak on the hot district
	{0.20, 0.40, 500 * time.Microsecond}, // evening
}

// hotDistrict is the spatial concentration target of the peak phases. It
// is exactly the lower-left quadrant: a static count-median partition of
// the uniform dataset puts it inside one cell at every K in the sweep,
// while the autoscaler's recursive splits of whichever cell runs hot cut
// through it.
var hotDistrict = geo.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}

// elasticSLO is the latency objective of both ablations: five times the
// server CPU demand fixed to every search in the cost model. A scan that
// takes longer waited behind several others on its shard's two cores, so a
// violation measures a saturated shard.
var elasticSLO = 5 * netmodel.DefaultCostModel().SearchFixed

// elasticResult rolls up one arm of a live-resharding ablation.
type elasticResult struct {
	ops, violations int
	splits          uint64
	// lats holds every operation's latency, crowd those after the first
	// phase.
	lats, crowd *stats.Histogram
	m           *shard.Map // the final map; nil for one server never split
}

// elasticLoad is one loader's part of an ablation: it calls op for each
// operation with the phase it belongs to, and op times fn against the
// handle the deployment binds at that moment — where a router adopts a
// committed map.
type elasticLoad = func(li int, p *sim.Proc, op func(phase int, fn func(cluster.Ops) error) error) error

// elasticAblation runs one arm per k of ks, one row each: mode, final K,
// splits, operations, SLO violations, p99, then the extra columns row
// fills. An arm deploys the dataset — at most 20 000 small rects, uniform
// over the unit square — on k shards of a fixed map, or for k == 0 on one
// server that an autoscale controller under policy grows by live splits,
// and runs load on every loader.
func elasticAblation(o Options, name string, ks []int, policy autoscale.PolicyConfig, load elasticLoad,
	extra []string, row func(elasticResult) []string) (*stats.Table, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	data := make([]rtree.Entry, min(o.DatasetSize, 20000))
	for i := range data {
		data[i] = rtree.Entry{Rect: randRectIn(rng, unitSquare, 0.005), Ref: uint64(i)}
	}
	table := stats.NewTable(append([]string{"mode", "finalK", "splits", "ops", "viol%", "p99_us"}, extra...)...)
	scheme := cluster.SchemeFastEvent
	scheme.Heartbeats = true
	cfg := cluster.Config{
		Scheme:       scheme,
		Dataset:      data,
		NumClients:   elasticLoaders,
		ServerCores:  elasticCores,
		HeartbeatInv: o.HeartbeatInv,
		Seed:         o.Seed,
	}
	for _, k := range ks {
		mode := "autoscale"
		if k > 0 {
			mode = fmt.Sprintf("static-%d", k)
		}
		cfg.Shards = max(k, 1)
		r, err := runArm(cfg, k == 0, policy, load)
		if err != nil {
			return nil, fmt.Errorf("ablation %s %s: %w", name, mode, err)
		}
		finalK := 1
		if r.m != nil {
			finalK = r.m.K()
		}
		viol := fmt.Sprintf("%.2f", 100*float64(r.violations)/float64(max(r.ops, 1)))
		table.AddRow(append([]string{mode, fmt.Sprint(finalK), fmt.Sprint(r.splits), fmt.Sprint(r.ops), viol,
			fmtDur(r.lats.Quantile(0.99))}, row(r)...)...)
	}
	return table, nil
}

// runArm deploys cfg, under an autoscale controller when elastic, and runs
// load on every loader.
func runArm(cfg cluster.Config, elastic bool, policy autoscale.PolicyConfig, load elasticLoad) (elasticResult, error) {
	d, err := cluster.Deploy(cfg)
	if err != nil {
		return elasticResult{}, err
	}
	var ctl *autoscale.Controller
	if elastic {
		ctl = d.Autoscale(policy, 2*cfg.HeartbeatInv)
	}
	res := elasticResult{lats: stats.NewHistogram(), crowd: stats.NewHistogram()}
	err = d.Drive(func(li int, p *sim.Proc) error {
		return load(li, p, func(phase int, fn func(cluster.Ops) error) error {
			start := p.Now()
			if err := fn(d.On(li, p)); err != nil {
				return err
			}
			lat := p.Now() - start
			res.ops++
			res.lats.Record(lat)
			if phase > 0 {
				res.crowd.Record(lat)
			}
			if lat > elasticSLO {
				res.violations++
			}
			d.Count(p, 1)
			return nil
		})
	}, nil)
	if ctl != nil {
		res.splits = ctl.Stats().Splits
	}
	res.m = d.Map()
	return res, err
}

// unitSquare is the plane the dataset and the uniform queries cover.
var unitSquare = geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

// autoscaleLoad is one loader's diurnal replay: hot-district scans and
// uniform scans with 10 % inserts, paced per phase.
func autoscaleLoad(o Options, opsPerLoader int) elasticLoad {
	return func(li int, p *sim.Proc, op func(int, func(cluster.Ops) error) error) error {
		rng := rand.New(rand.NewSource(o.Seed + 1000 + int64(li)))
		nextRef := uint64(1<<30) + uint64(li)<<20
		for phase, ph := range diurnalPhases {
			for i := 0; i < int(ph.frac*float64(opsPerLoader)); i++ {
				// Hot queries are broad district scans of ~100 items.
				q := randRectIn(rng, unitSquare, 0.03)
				if rng.Float64() < ph.hot {
					q = randRectIn(rng, hotDistrict, 0.07)
				}
				insert, ref := rng.Float64() < 0.1, nextRef
				if insert {
					nextRef++
				}
				if err := op(phase, func(c cluster.Ops) error {
					if insert {
						return c.Insert(randRectIn(rng, q, 0.001), ref)
					}
					_, _, err := c.Search(q)
					return err
				}); err != nil {
					return err
				}
				p.Sleep(ph.pause)
			}
		}
		return nil
	}
}

// randRectIn draws a query rect of the given edge whose origin falls
// inside within.
func randRectIn(rng *rand.Rand, within geo.Rect, edge float64) geo.Rect {
	w := within.MaxX - within.MinX
	h := within.MaxY - within.MinY
	x := within.MinX + rng.Float64()*w
	y := within.MinY + rng.Float64()*h
	return geo.Rect{MinX: x, MinY: y, MaxX: x + edge, MaxY: y + edge}
}

// AblationAutoscale compares static shard counts against the
// telemetry-driven autoscaler under the spatially-skewed diurnal replay.
// The SLO-violation column is the claim: the autoscaler, starting from
// K = 1 and splitting live, beats every static K because static
// partitioning cannot subdivide the hot district.
func AblationAutoscale(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	return elasticAblation(o, "autoscale", []int{1, 2, 4, 0},
		autoscale.PolicyConfig{ScaleUpUtil: 0.7, MaxK: 4, Cooldown: 10 * o.HeartbeatInv},
		autoscaleLoad(o, min(o.Requests*3, 3000)),
		nil, func(elasticResult) []string { return nil })
}
