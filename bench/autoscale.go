package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/stats"
)

// The autoscale ablation runs on real localhost TCP (unlike the simulated
// ablations): the autoscaler's whole job is driving live servers through
// the resharding wire protocol, so there is nothing honest to measure in
// simulation. The workload is a diurnal replay with spatial skew — load
// concentrates on one hot district during the midday peak — which is the
// regime where autoscaling beats any static partitioning: a static map
// splits the plane by entry count, so the hot district stays inside one
// cell and saturates its server no matter how large K is, while the
// autoscaler recursively subdivides exactly the cells that run hot.
//
// diurnalPhases is the replayed day: fraction of operations per phase, the
// probability an operation targets the hot district, and per-op think time.
// The think time is what makes the day diurnal: the loaders are closed
// loops, so without it they'd hold the TX line saturated around the clock
// and the autoscaler would see every phase as "hot" — nominating whichever
// shard a night-time sample happened to catch busy and burning MaxK on
// cold cells before the real peak arrives. Pausing the off-peak phases
// keeps their utilization under the scale-up threshold, so splits can only
// fire while the hot district is actually the bottleneck.
var diurnalPhases = []struct {
	frac, hot float64
	pause     time.Duration
}{
	{0.15, 0.05, 2 * time.Millisecond},   // night: light, uniform
	{0.20, 0.45, 0},                      // morning ramp
	{0.45, 0.95, 0},                      // midday peak on the hot district
	{0.20, 0.40, 500 * time.Microsecond}, // evening
}

// hotDistrict is the spatial concentration target of the peak phases. It
// is exactly the lower-left quadrant: a static count-median partition of
// the uniform dataset puts it inside ONE cell at every K in the sweep,
// while the autoscaler's recursive splits of whichever cell runs hot cut
// through it and divide the peak load.
var hotDistrict = geo.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}

// elasticResult rolls up one wall-clock deployment run.
type elasticResult struct {
	ops, violations, overloaded int
	finalK                      int
	splits                      uint64
	// p99 is over every operation, crowdP99 over those after the first
	// phase.
	p99, crowdP99 time.Duration
	m             *shard.Map // the final map
}

// opLog is one loader's record of the operations it ran.
type opLog struct {
	slo                         time.Duration
	ops, violations, overloaded int
	lats, crowdLats             []time.Duration
}

// record books one operation of the given phase, started at t0, that
// returned err. SLO violations count operations that errored (admission
// sheds included, after the router's retry budget) or exceeded the SLO. Any
// non-shed error is a correctness failure of the deployment, not load, so it
// is returned to stop the loader.
func (l *opLog) record(phase int, t0 time.Time, err error) error {
	lat := time.Since(t0)
	l.ops++
	l.lats = append(l.lats, lat)
	if phase > 0 {
		l.crowdLats = append(l.crowdLats, lat)
	}
	shed := errors.Is(err, rpcnet.ErrOverloaded)
	if shed {
		l.overloaded++
	}
	if err != nil || lat > l.slo {
		l.violations++
	}
	if err != nil && !shed {
		return err
	}
	return nil
}

// runElastic is the wall-clock driver of both live-resharding ablations. It
// deploys data on localhost TCP — staticK > 0 serves a fixed K-shard map,
// staticK == 0 starts at K = 1 and lets an autoscale controller under policy
// grow it through rpcnet.Elastic — connects one router per loader, runs
// load on each, and rolls their logs up.
func runElastic(o Options, data []rtree.Entry, staticK, loaders int, policy autoscale.PolicyConfig,
	deadline, slo time.Duration, load func(li int, r *rpcnet.Router, log *opLog) error) (elasticResult, error) {
	var res elasticResult
	hb := elasticHeartbeat(o)
	m, err := shard.Build(data, shard.Config{K: max(staticK, 1), MaxInsertEdge: 0.01})
	if err != nil {
		return res, err
	}
	newServer := func(entries []rtree.Entry) (*rpcnet.Server, error) {
		reg, err := region.New(1<<15, 4096)
		if err != nil {
			return nil, err
		}
		tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			if err := tree.BulkLoad(append([]rtree.Entry(nil), entries...), 0); err != nil {
				return nil, err
			}
		}
		srv, err := rpcnet.Listen("127.0.0.1:0", tree, rpcnet.ServerConfig{
			HeartbeatInterval: hb,
			// The modeled per-server capacity is the TX line: PaceTX
			// enforces a 100 Mbps NIC per server, so splitting a hot shard
			// genuinely doubles the hot district's aggregate capacity even
			// on a single-core bench machine (pacing sleeps burn no CPU).
			// Admission arms at 0.75 of the line so the saturated shard
			// sheds deadline-carrying load instead of queueing it.
			TXLineRateBps: 100e6,
			PaceTX:        true,
			AdmissionUtil: 0.75,
		})
		if err != nil {
			return nil, err
		}
		go srv.Serve() //nolint:errcheck // returns on Close
		return srv, nil
	}
	// The routers are local, so a split shard drains as soon as all of them
	// serve the new map, or after 2 s: a router that never converges still
	// gets correct answers from the dual-written old shard, so draining on
	// timeout costs only the moved region's duplication.
	var routers []*rpcnet.Router
	wait := func(stop <-chan struct{}, version uint64) {
		for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
			converged := true
			for _, r := range routers {
				converged = converged && r.Map().Version == version
			}
			if converged {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(hb):
			}
		}
	}
	var srvs []*rpcnet.Server
	e, err := func() (*rpcnet.Elastic, error) {
		for _, entries := range m.Assign(data) {
			srv, err := newServer(entries)
			if err != nil {
				return nil, err
			}
			srvs = append(srvs, srv)
		}
		return rpcnet.NewElastic(m, srvs, func() (*rpcnet.Server, error) { return newServer(nil) }, wait)
	}()
	if err != nil {
		for _, s := range srvs {
			s.Close()
		}
		return res, err
	}
	defer e.Close()

	routers = make([]*rpcnet.Router, loaders)
	for i := range routers {
		c, err := rpcnet.Connect(e.Addrs(),
			rpcnet.WithDeadline(deadline),
			rpcnet.WithSeed(o.Seed+int64(i)),
			// No replicas to fail over to: a generous liveness window keeps
			// scheduling hiccups on the shared bench machine from reading as
			// dead shards. (Also forces the Router shape at K=1, which the
			// autoscaled mode needs for live map adoption.)
			rpcnet.WithHealthMultiple(100),
		)
		if err != nil {
			return res, err
		}
		defer c.Close()
		routers[i] = c.(*rpcnet.Router)
	}

	var ctl *autoscale.Controller
	stop := make(chan struct{})
	var ran sync.WaitGroup
	if staticK == 0 {
		ctl = autoscale.NewController(e, e, policy)
		ran.Add(1)
		go func() {
			defer ran.Done()
			ctl.Run(stop, 2*hb)
		}()
	}

	logs := make([]opLog, loaders)
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for li, r := range routers {
		li, r := li, r
		logs[li].slo = slo
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[li] = load(li, r, &logs[li])
		}()
	}
	wg.Wait()
	close(stop)
	ran.Wait()
	if ctl != nil {
		res.splits = ctl.Stats().Splits
	}
	if err := errors.Join(errs...); err != nil {
		return res, err
	}

	var lats, crowd []time.Duration
	for _, l := range logs {
		res.ops += l.ops
		res.violations += l.violations
		res.overloaded += l.overloaded
		lats = append(lats, l.lats...)
		crowd = append(crowd, l.crowdLats...)
	}
	res.p99, res.crowdP99 = p99(lats), p99(crowd)
	res.m = e.Map()
	res.finalK = res.m.K()
	return res, nil
}

// elasticHeartbeat is the heartbeat interval of both live-resharding
// ablations: the options', at least 2 ms.
func elasticHeartbeat(o Options) time.Duration {
	return max(o.HeartbeatInv, 2*time.Millisecond)
}

// p99 is the 99th-percentile latency (0 for none); it sorts lats.
func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)*99/100]
}

// autoscaleLoad is one loader's diurnal replay: hot-district scans and
// uniform scans with 10 % inserts, paced per phase.
func autoscaleLoad(o Options, opsPerLoader int) func(li int, r *rpcnet.Router, log *opLog) error {
	return func(li int, r *rpcnet.Router, log *opLog) error {
		rng := rand.New(rand.NewSource(o.Seed + 1000 + int64(li)))
		nextRef := uint64(1<<30) + uint64(li)<<20
		for phase, ph := range diurnalPhases {
			n := int(ph.frac * float64(opsPerLoader))
			for i := 0; i < n; i++ {
				var q geo.Rect
				if rng.Float64() < ph.hot {
					// Hot queries are broad district scans: ~100-item
					// results whose responses saturate the TX line.
					q = randRectIn(rng, hotDistrict, 0.07)
				} else {
					q = randRectIn(rng, geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0.03)
				}
				t0 := time.Now()
				var err error
				if rng.Float64() < 0.1 {
					err = r.Insert(randRectIn(rng, q, 0.001), nextRef)
					nextRef++
				} else {
					_, _, err = r.Search(q)
				}
				if err := log.record(phase, t0, err); err != nil {
					return err
				}
				if ph.pause > 0 {
					time.Sleep(ph.pause)
				}
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
// telemetry-driven autoscaler under the spatially-skewed diurnal replay,
// on real localhost TCP. The SLO-violation column is the paper claim: the
// autoscaler, starting from K=1 and splitting through the live-resharding
// path, beats every static K because static partitioning cannot subdivide
// the hot district.
func AblationAutoscale(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	n := o.DatasetSize
	if n > 20000 {
		n = 20000
	}
	rng := rand.New(rand.NewSource(o.Seed))
	data := make([]rtree.Entry, n)
	for i := range data {
		data[i] = rtree.Entry{
			Rect: randRectIn(rng, geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0.005),
			Ref:  uint64(i),
		}
	}
	loaders := 16
	opsPerLoader := o.Requests * 3
	if opsPerLoader > 3000 {
		opsPerLoader = 3000
	}
	// The SLO sits between the saturated hot-shard round trip (≈ loaders ×
	// per-response wire time ≈ 7-8 ms measured) and the same after the
	// autoscaler has split the hot district across two servers (≈ 3.5 ms),
	// so violations measure exactly the saturation the autoscaler removes.
	const (
		deadline = 5 * time.Millisecond
		slo      = 5 * time.Millisecond
	)

	table := stats.NewTable("mode", "finalK", "splits", "ops", "violations", "viol%", "overloaded", "p99_us")
	run := func(mode string, staticK int) error {
		r, err := runElastic(o, data, staticK, loaders, autoscale.PolicyConfig{
			ScaleUpUtil: 0.7,
			MaxK:        4,
			Cooldown:    10 * elasticHeartbeat(o),
			// The modeled capacity is the paced TX line; CPU on the shared
			// bench box reflects every co-located server plus the loaders
			// and would nominate hot shards at random.
			TXOnly: true,
		}, deadline, slo, autoscaleLoad(o, opsPerLoader))
		if err != nil {
			return fmt.Errorf("ablation autoscale %s: %w", mode, err)
		}
		table.AddRow(mode,
			fmt.Sprintf("%d", r.finalK),
			fmt.Sprintf("%d", r.splits),
			fmt.Sprintf("%d", r.ops),
			fmt.Sprintf("%d", r.violations),
			fmt.Sprintf("%.2f", 100*float64(r.violations)/float64(max(r.ops, 1))),
			fmt.Sprintf("%d", r.overloaded),
			fmtDur(r.p99))
		return nil
	}
	for _, k := range []int{1, 2, 4} {
		if err := run(fmt.Sprintf("static-%d", k), k); err != nil {
			return nil, err
		}
	}
	if err := run("autoscale", 0); err != nil {
		return nil, err
	}
	return table, nil
}
