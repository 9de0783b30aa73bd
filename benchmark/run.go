package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	catfish "github.com/catfish-db/catfish"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full document of one run (written to
// benchmark/out/result-<workload>.json); its first four fields are the
// line the driver reads from stdout.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Traced   bool           `json:"traced"`
	WindowS  float64        `json:"window_s"`
	WarmupS  float64        `json:"warmup_s"`
	Slices   int            `json:"slices"`
	Samples  map[string]int `json:"samples"` // latency samples per op class behind the percentiles
	// PerSlice holds, for each metric, its value in every slice of the
	// window (or group of the write pass, or set-up) in order; the reported
	// value is steady() of them. It shows whether a run was steady or
	// changed speed part-way.
	PerSlice map[string][]float64 `json:"per_slice"`
	Notes    []string             `json:"notes,omitempty"`
}

func newReport(name string, seed int64, traced bool) *report {
	return &report{Workload: name, Seed: seed, Traced: traced,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}
}

// set records a metric; a value that is not a finite number is an error,
// never a silently dropped metric.
func (r *report) set(specs []metricSpec, name string, v float64) error {
	for _, s := range specs {
		if s.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s is %v", name, v)
			}
			r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
			return nil
		}
	}
	return fmt.Errorf("metric %s is not in the spec", name)
}

// complete checks that the run produced exactly the spec's metrics.
func (r *report) complete(specs []metricSpec) error {
	for _, s := range specs {
		if _, ok := r.Metrics[s.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
	}
	if len(r.Metrics) != len(specs) {
		return fmt.Errorf("%d metrics reported, spec has %d", len(r.Metrics), len(specs))
	}
	return nil
}

func (r *report) count(v *verdict) {
	r.Attempted += v.attempted
	r.Failed += v.failed
	r.Notes = append(r.Notes, v.notes...)
}

func heapInuseMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// setupBudget is the time a run spends on repeated set-ups, in seconds,
// once it has done its minimum number of them.
const setupBudget = 2.0

// measured is one window over one deployment, with its write pass.
type measured struct {
	rates   windowRates
	groups  latencyGroups
	streams []*stream
	failed  int64
	errs    []string // the first failure of each stream
	spans   [][]span
}

// measureWindow runs warm-up + window over d.
func measureWindow(d *deployment, in *inputs, window time.Duration, sc scale, tr *tracer) (*measured, error) {
	m := &measured{streams: d.streams(in, window.Seconds()*(1+sc.warmupShare))}
	warm := time.Duration(float64(window) * sc.warmupShare)
	tx := func() uint64 { return d.srv.Stats().TXBytes }
	var cuts []cut
	slices := max(int(window/sc.sliceLen), 1)
	tr.phase("window:"+d.name, func() { cuts = runWindow(m.streams, tx, warm, window, slices, tr) })
	var err error
	if m.rates, err = ratesOf(cuts); err != nil {
		return nil, err
	}
	m.groups.addSlices(m.streams, cuts)
	for _, s := range m.streams {
		m.note(s)
	}
	return m, nil
}

// measure is measureWindow followed, on the search workloads, by the
// quiesced write pass.
func measure(d *deployment, in *inputs, window time.Duration, sc scale, tr *tracer) (*measured, error) {
	m, err := measureWindow(d, in, window, sc, tr)
	if err != nil {
		return nil, err
	}
	if d.name != "moving-fleet" {
		tr.phase("write-pass:"+d.name, func() { m.note(d.writePass(in, sc.writeGroup, &m.groups, tr)) })
	}
	return m, nil
}

// note takes over a finished stream's failures and spans.
func (m *measured) note(s *stream) {
	m.failed += s.failed
	if s.err != nil {
		m.errs = append(m.errs, s.err.Error())
	}
	m.spans = append(m.spans, s.spans)
}

// attempted is every op the window's slices and the write pass's groups
// hold, plus every failed one (warm-up ops are in neither).
func (m *measured) attempted() int64 {
	n := m.failed
	for c := 0; c < nClass; c++ {
		n += int64(m.groups.count(c))
	}
	return n
}

// runEndToEnd is the untraced run: every end-to-end metric of one workload.
func runEndToEnd(name string, seed int64, window time.Duration, sc scale) (*report, error) {
	r := newReport(name, seed, false)

	// Set up at least sc.setups times, and keep going (up to five times as
	// often) until setupBudget is spent, so that a set-up of 0.15 s gets a
	// median as steady as one of 0.7 s.
	var d *deployment
	var setups []float64
	for spent := 0.0; len(setups) < sc.setups || (spent < setupBudget && len(setups) < 5*sc.setups); {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = setup(name, seed, sc, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer d.close()
	// Collect the discarded set-ups and hand their pages back now, so the
	// scavenger is not still doing it in the background of the window.
	debug.FreeOSMemory()
	heap := heapInuseMB()

	lap := newLaps()
	in := genInputs(name, seed, sc, d.fleet, window.Seconds())
	lap.mark("inputs")
	m, err := measure(d, in, window, sc, nil)
	if err != nil {
		return nil, err
	}
	lap.mark("window+write-pass")
	r.count(&verdict{attempted: m.attempted(), failed: m.failed, notes: m.errs})
	r.count(d.verify(in, sc))
	lap.mark("verify")
	lap.print(name)

	r.WindowS, r.WarmupS, r.Slices = m.rates.seconds, window.Seconds()*sc.warmupShare, len(m.rates.opsPerS)
	for c := 0; c < nClass; c++ {
		r.Samples[classNames[c]] = m.groups.count(c)
	}
	r.PerSlice = map[string][]float64{
		"setup_s":         setups,
		"heap_mb":         {heap},
		"ops_per_s":       m.rates.opsPerS,
		"cpu_us_per_op":   m.rates.cpuUSPerOp,
		"allocs_per_op":   m.rates.allocsPerOp,
		"tx_bytes_per_op": m.rates.txBytesPerOp,
	}
	for _, q := range []struct {
		name  string
		class int
		q     float64
	}{
		{"search_p50_us", classSearch, 0.50}, {"write_p50_us", classWrite, 0.50}, {"knn_p50_us", classKNN, 0.50},
	} {
		if r.PerSlice[q.name], err = m.groups.quantilesUS(q.class, q.q, sc.minTail); err != nil {
			return nil, err
		}
	}
	for _, spec := range endToEndSpecs {
		v := steady(r.PerSlice[spec.Name], spec.Better)
		if spec.Name == "setup_s" {
			v = median(setups)
		}
		if err := r.set(endToEndSpecs, spec.Name, v); err != nil {
			return nil, err
		}
	}
	r.Correct = r.Failed == 0
	return r, r.complete(endToEndSpecs)
}

// laps prints where a run's wall time went, on stderr, for whoever sizes
// run_seconds against the driver's time cap.
type laps struct {
	last time.Time
	text string
}

func newLaps() *laps { return &laps{last: time.Now()} }

func (l *laps) mark(name string) {
	now := time.Now()
	l.text += fmt.Sprintf(" %s=%.2fs", name, now.Sub(l.last).Seconds())
	l.last = now
}

func (l *laps) print(workload string) { fmt.Fprintf(os.Stderr, "benchmark: %s:%s\n", workload, l.text) }

// layersDoc is the traced run's document: the report plus what the driver
// line has no room for.
type layersDoc struct {
	*report
	ProbeAllocsPerOp map[string]float64 `json:"probe_allocs_per_op"`
	Spans            int                `json:"spans"`
	SpanFile         string             `json:"span_file"`
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runTraced is the second pass: half a window untraced for reference, half
// a window with a span around every Conn call and the server's registry
// attached, then the layer probes. It reports every per-layer metric.
func runTraced(name string, seed int64, window time.Duration, sc scale, outDir string, updateGolden bool) (*report, error) {
	r := newReport(name, seed, true)
	half := window / 2
	lap := newLaps()

	// Reference: the same code path as the end-to-end run, no write pass.
	ref, err := setup(name, seed, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	refM, err := measureWindow(ref, genInputs(name, seed, sc, ref.fleet, half.Seconds()), half, sc, nil)
	ref.close()
	if err != nil {
		return nil, err
	}
	lap.mark("reference-window")

	reg := catfish.NewRegistry()
	d, err := setup(name, seed, sc, reg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	in := genInputs(name, seed, sc, d.fleet, half.Seconds())
	tr := newTracer()
	m, err := measure(d, in, half, sc, tr)
	if err != nil {
		return nil, err
	}
	// Server-side latency, before the correctness pass adds its searches.
	hist := func(op string) (p50, p99 float64) {
		s := reg.Histogram("catfish_request_latency_seconds", "op", op).Snapshot()
		return float64(s.P50) / 1e3, float64(s.P99) / 1e3
	}
	srvSearch50, srvSearch99 := hist("search")
	srvMove50, _ := hist("move")
	srvKNN50, _ := hist("knn")
	var snap catfish.ClientSnapshot
	for _, c := range d.conns {
		snap = snap.Add(c.Snapshot())
	}
	lap.mark("traced-window+write-pass")
	r.count(&verdict{attempted: m.attempted() + refM.attempted(), failed: m.failed + refM.failed,
		notes: append(m.errs, refM.errs...)})
	r.count(d.verify(in, sc))
	lap.mark("verify")

	r.WindowS, r.WarmupS, r.Slices = m.rates.seconds, half.Seconds()*sc.warmupShare, len(m.rates.opsPerS)
	for c := 0; c < nClass; c++ {
		r.Samples[classNames[c]] = m.groups.count(c)
	}
	var tailErr error
	tail := func(class int, q float64) float64 {
		series, err := m.groups.quantilesUS(class, q, sc.minTail)
		if err != nil {
			tailErr = err
			return 0
		}
		return steady(series, "lower")
	}
	client50, search99, write99 := tail(classSearch, 0.50), tail(classSearch, 0.99), tail(classWrite, 0.99)
	if tailErr != nil {
		return nil, tailErr
	}
	var pooled []int32
	for _, g := range m.groups[classSearch] {
		pooled = append(pooled, g...)
	}
	slices.Sort(pooled)
	// Information only, over the whole traced window; 0 when the window
	// holds too few searches to put ten beyond it (moving-fleet's do not).
	p999, ok := percentile(pooled, 0.999, sc.minTail)
	if !ok {
		p999 = 0
	}
	shape, err := d.tree.Shape()
	if err != nil {
		return nil, err
	}
	cache := 0
	if name == "point-offload" {
		cache = sc.nodeCache
	}
	searches := snap.Searches()
	lookups := snap.CacheHits + snap.CacheVerifiedHits + snap.CacheMisses
	fromWindow := map[string]float64{
		"rpcnet.server_search_p50_us":          srvSearch50,
		"rpcnet.server_search_p99_us":          srvSearch99,
		"rpcnet.client_minus_server_p50_us":    client50 - srvSearch50,
		"rpcnet.server_move_p50_us":            srvMove50,
		"rpcnet.server_knn_p50_us":             srvKNN50,
		"rpcnet.search_p99_us":                 search99,
		"rpcnet.search_p999_us":                p999 / 1e3,
		"rpcnet.write_p99_us":                  write99,
		"rpcnet.chunk_reads_per_search":        ratio(snap.NodesFetched, searches),
		"rpcnet.wqes_per_search":               ratio(snap.ReadWQEs, searches),
		"rpcnet.version_reads_per_search":      ratio(snap.VersionReads, searches),
		"rpcnet.torn_retries_per_kop":          1e3 * ratio(snap.TornRetries, searches),
		"rpcnet.stale_restarts_per_kop":        1e3 * ratio(snap.StaleRestarts, searches),
		"rpcnet.root_cache_hit_ratio":          ratio(snap.RootCacheHits, snap.OffloadSearches),
		"nodecache.hit_ratio":                  ratio(snap.CacheHits, lookups),
		"nodecache.verified_hit_ratio":         ratio(snap.CacheVerifiedHits, lookups),
		"nodecache.capacity_per_internal_node": float64(cache) / float64(max(shape.Nodes-shape.Leaves, 1)),
		"trace.overhead_ratio":                 steady(m.rates.opsPerS, "higher") / steady(refM.rates.opsPerS, "higher"),
	}
	for name, v := range fromWindow {
		if err := r.set(perLayerSpecs, name, v); err != nil {
			return nil, err
		}
	}

	probeAllocs, err := runProbes(r, seed, sc, tr, updateGolden)
	if err != nil {
		return nil, err
	}
	lap.mark("probes")
	lap.print(name)
	r.Correct = r.Failed == 0
	if err := r.complete(perLayerSpecs); err != nil {
		return nil, err
	}

	doc := layersDoc{report: r, ProbeAllocsPerOp: probeAllocs,
		SpanFile: filepath.Join(outDir, "trace-"+name+".json")}
	groups := append(m.spans, tr.phases)
	for _, g := range groups {
		doc.Spans += len(g)
	}
	if err := writeSpans(doc.SpanFile, groups...); err != nil {
		return nil, err
	}
	return r, writeJSON(filepath.Join(outDir, "layers-"+name+".json"), doc)
}
