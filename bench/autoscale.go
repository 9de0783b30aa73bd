package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
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
	"github.com/catfish-db/catfish/internal/telemetry"
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

// asDeploy is one live localhost deployment under the ablation: servers,
// their addresses and scrape URLs, and the routers driving load (read by
// the drain goroutine to wait for map convergence).
type asDeploy struct {
	mu      sync.Mutex
	m       *shard.Map
	srvs    []*rpcnet.Server
	addrs   []string
	urls    []string
	metrics []*http.Server
	hb      time.Duration
	srvCfg  func() rpcnet.ServerConfig

	routers []*rpcnet.Router // fixed after load start; drain polls Map()
}

// newASServer starts one server over its assigned entries (nil for an
// empty reshard target) and, when scraped is true, an HTTP /metrics
// endpoint for its registry.
func (d *asDeploy) newASServer(entries []rtree.Entry, scraped bool) (*rpcnet.Server, string, string, error) {
	reg, err := region.New(1<<15, 4096)
	if err != nil {
		return nil, "", "", err
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		return nil, "", "", err
	}
	if len(entries) > 0 {
		if err := tree.BulkLoad(append([]rtree.Entry(nil), entries...), 0); err != nil {
			return nil, "", "", err
		}
	}
	cfg := d.srvCfg()
	cfg.Metrics = telemetry.NewRegistry()
	srv, err := rpcnet.Listen("127.0.0.1:0", tree, cfg)
	if err != nil {
		return nil, "", "", err
	}
	go srv.Serve() //nolint:errcheck // returns on Close
	url := ""
	if scraped {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			srv.Close()
			return nil, "", "", lerr
		}
		mux := http.NewServeMux()
		mreg := cfg.Metrics
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			mreg.WritePrometheus(w) //nolint:errcheck // scrape best-effort
		})
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln) //nolint:errcheck // returns on Close
		d.metrics = append(d.metrics, hs)
		url = "http://" + ln.Addr().String() + "/metrics"
	}
	return srv, srv.Addr().String(), url, nil
}

func (d *asDeploy) close() {
	for _, hs := range d.metrics {
		hs.Close()
	}
	for _, s := range d.srvs {
		s.Close()
	}
}

// Split implements autoscale.Actuator: split shard s into an empty server
// with a scraped /metrics endpoint (rpcnet.SplitShard) and drain the
// dual-write once the load routers have adopted the bumped version.
func (d *asDeploy) Split(s int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var url string
	newSrv, nm, addrs, err := rpcnet.SplitShard(d.srvs, d.addrs, s, func() (*rpcnet.Server, error) {
		srv, _, u, err := d.newASServer(nil, true)
		url = u
		return srv, err
	})
	if err != nil {
		return d.m.K(), err
	}
	go d.drainAfterAdoption(d.srvs[s], nm.Version)
	d.m = nm
	d.srvs = append(d.srvs, newSrv)
	d.addrs = addrs
	d.urls = append(d.urls, url)
	return nm.K(), nil
}

// drainAfterAdoption ends a split's dual-write window once every load
// router serves the committed map (bounded wait: a router that never
// converges still gets correct answers from the dual-written old shard, so
// draining on timeout costs only the moved region's duplication).
func (d *asDeploy) drainAfterAdoption(old *rpcnet.Server, version uint64) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range d.routers {
			if r.Map().Version != version {
				all = false
				break
			}
		}
		if all {
			break
		}
		time.Sleep(d.hb)
	}
	old.DrainSplit() //nolint:errcheck // shed duplication is benign here
}

// scrape implements autoscale.Scraper over the deployment's current (and
// growing) endpoint set.
type asScraper struct{ d *asDeploy }

func (a asScraper) Scrape() ([]autoscale.Sample, error) {
	a.d.mu.Lock()
	urls := append([]string(nil), a.d.urls...)
	a.d.mu.Unlock()
	h := &autoscale.HTTPScraper{URLs: urls, Client: &http.Client{Timeout: time.Second}}
	return h.Scrape()
}

// asResult aggregates one deployment run.
type asResult struct {
	ops, violations, overloaded int
	finalK                      int
	splits                      uint64
	p99                         time.Duration
}

// runAutoscaleMode replays the diurnal workload against one deployment:
// staticK > 0 serves a fixed map, staticK == 0 starts at K=1 under the
// controller. SLO violations count operations that errored (admission
// sheds included, after the router's retry budget) or exceeded slo.
func runAutoscaleMode(o Options, data []rtree.Entry, staticK int,
	loaders, opsPerLoader int, deadline, slo time.Duration) (asResult, error) {
	var res asResult
	k := staticK
	autoscaled := staticK == 0
	if autoscaled {
		k = 1
	}
	hb := o.HeartbeatInv
	if hb < 2*time.Millisecond {
		hb = 2 * time.Millisecond
	}
	m, err := shard.Build(data, shard.Config{K: k, MaxInsertEdge: 0.01})
	if err != nil {
		return res, err
	}
	d := &asDeploy{m: m, hb: hb}
	d.srvCfg = func() rpcnet.ServerConfig {
		return rpcnet.ServerConfig{
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
		}
	}
	defer d.close()

	assign := m.Assign(data)
	for s := 0; s < k; s++ {
		srv, addr, url, err := d.newASServer(assign[s], autoscaled)
		if err != nil {
			return res, err
		}
		d.srvs = append(d.srvs, srv)
		d.addrs = append(d.addrs, addr)
		if autoscaled {
			d.urls = append(d.urls, url)
		}
	}
	// The committed map must carry the address table for resharding.
	for s, srv := range d.srvs {
		if err := srv.AdoptShardMap(m, s, d.addrs); err != nil {
			return res, err
		}
	}

	routers := make([]*rpcnet.Router, loaders)
	for i := range routers {
		c, err := rpcnet.Connect(d.addrs,
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
	d.routers = routers

	var ctl *autoscale.Controller
	var stop chan struct{}
	if autoscaled {
		ctl = autoscale.NewController(asScraper{d}, d, autoscale.PolicyConfig{
			TargetUtil:  0.5,
			ScaleUpUtil: 0.7,
			MaxK:        4,
			Cooldown:    10 * hb,
			// The modeled capacity is the paced TX line; CPU on the
			// shared bench box reflects every co-located server plus the
			// loaders and would nominate hot shards at random.
			TXOnly: true,
		})
		stop = make(chan struct{})
		go ctl.Run(stop, 2*hb)
	}

	type loadOut struct {
		ops, violations, overloaded int
		lats                        []time.Duration
		err                         error
	}
	outs := make([]loadOut, loaders)
	var wg sync.WaitGroup
	for li := 0; li < loaders; li++ {
		li := li
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[li]
			rng := rand.New(rand.NewSource(o.Seed + 1000 + int64(li)))
			r := routers[li]
			nextRef := uint64(1<<30) + uint64(li)<<20
			out.lats = make([]time.Duration, 0, opsPerLoader)
			for _, ph := range diurnalPhases {
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
					lat := time.Since(t0)
					out.ops++
					out.lats = append(out.lats, lat)
					if errors.Is(err, rpcnet.ErrOverloaded) {
						out.overloaded++
					}
					if err != nil || lat > slo {
						out.violations++
					}
					if err != nil && !errors.Is(err, rpcnet.ErrOverloaded) {
						// Any non-shed error is a correctness failure of the
						// deployment, not load: surface it.
						out.err = err
						return
					}
					if ph.pause > 0 {
						time.Sleep(ph.pause)
					}
				}
			}
		}()
	}
	wg.Wait()
	if stop != nil {
		close(stop)
		res.splits = ctl.Stats().Splits
	}

	var lats []time.Duration
	for i := range outs {
		if outs[i].err != nil {
			return res, outs[i].err
		}
		res.ops += outs[i].ops
		res.violations += outs[i].violations
		res.overloaded += outs[i].overloaded
		lats = append(lats, outs[i].lats...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.p99 = lats[len(lats)*99/100]
	}
	d.mu.Lock()
	res.finalK = d.m.K()
	d.mu.Unlock()
	return res, nil
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
	addRow := func(mode string, r asResult) {
		table.AddRow(mode,
			fmt.Sprintf("%d", r.finalK),
			fmt.Sprintf("%d", r.splits),
			fmt.Sprintf("%d", r.ops),
			fmt.Sprintf("%d", r.violations),
			fmt.Sprintf("%.2f", 100*float64(r.violations)/float64(max(r.ops, 1))),
			fmt.Sprintf("%d", r.overloaded),
			fmtDur(r.p99))
	}
	for _, k := range []int{1, 2, 4} {
		r, err := runAutoscaleMode(o, data, k, loaders, opsPerLoader, deadline, slo)
		if err != nil {
			return nil, fmt.Errorf("ablation autoscale static K=%d: %w", k, err)
		}
		addRow(fmt.Sprintf("static-%d", k), r)
	}
	r, err := runAutoscaleMode(o, data, 0, loaders, opsPerLoader, deadline, slo)
	if err != nil {
		return nil, fmt.Errorf("ablation autoscale: %w", err)
	}
	addRow("autoscale", r)
	return table, nil
}
