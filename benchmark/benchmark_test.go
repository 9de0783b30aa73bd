package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// testScale shrinks every size so a workload smokes in well under a second.
var testScale = scale{
	items:       20_000,
	movers:      5_000,
	scanEdge:    0.05, // ≈50 results on 20k rectangles
	nodeCache:   16,
	setups:      1,
	sliceLen:    100 * time.Millisecond,
	warmupShare: 0.15,
	queries:     4096,
	writeMoves:  200,
	writeGroup:  110,
	verify:      20,
	verifyKNN:   3,
	minTail:     0, // the rule has its own test; a slow machine must not fail the smoke
	moveRate:    10_000,
	probeShrink: 200,
}

func TestPercentileRule(t *testing.T) {
	sorted := make([]int32, 1000)
	for i := range sorted {
		sorted[i] = int32(i)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.50, 500, true},
		{1000, 0.99, 990, false}, // 9 samples beyond: one short of ten
		{1000, 0.989, 989, true}, // exactly ten beyond
		{20, 0.50, 10, false},    // 9 beyond
		{21, 0.50, 10, true},
	} {
		got, ok := percentile(sorted[:c.n], c.q, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5, 0); ok {
		t.Error("an empty sample supports no percentile")
	}
	// A slice too small for its tail is an error, not a number.
	var g latencyGroups
	g.add(classSearch, make([]int32, 500))
	if _, err := g.quantilesUS(classSearch, 0.99, 10); err == nil {
		t.Error("p99 of 500 samples has 4 beyond it and must be refused")
	}
	if _, err := g.quantilesUS(classKNN, 0.5, 10); err == nil {
		t.Error("a class without samples must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	sp := spreadOf(metricSpec{Name: "x", Bound: 0.10}, []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109})
	if sp.Verdict != "within" || math.Abs(sp.IQRShare-5.5/104.5) > 1e-12 {
		t.Errorf("spread = %+v", sp)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the names the program prints and the
// names BENCHMARK.json promises the driver one and the same, and holds
// both to the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadSpec
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloadSpecs) || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadSpecs))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w != workloadSpecs[i] || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v vs %+v", i, w, workloadSpecs[i])
		}
	}
	same := func(kind string, got []jsonMetric, want []metricSpec, limit int, bounded bool) {
		t.Helper()
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			name(m.Name)
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || !unitRE.MatchString(m.Unit) ||
				(m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %d: %+v vs %+v", kind, i, m, w)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s: bound %v vs %v (must be in (0, 0.25])", m.Name, m.Bound, w.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndSpecs, 16, true)
	same("per_layer", doc.PerLayer, perLayerSpecs, 128, false)
	if s := endToEndSpecs[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", s)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || len(doc.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", doc.RunSeconds, doc.Paths, doc.Command)
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadSpecs {
		gen := func(seed int64) [32]byte {
			d, err := setup(w.Name, seed, testScale, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			return genInputs(w.Name, seed, testScale, d.fleet, 0.2).digest()
		}
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("%s: the same seed generated different inputs", w.Name)
		}
		if a, b := gen(7), gen(8); a == b {
			t.Errorf("%s: different seeds generated the same inputs", w.Name)
		}
	}
}

func checkMetrics(t *testing.T, r *report, specs []metricSpec, positive bool) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%v", r.Correct, r.Attempted, r.Failed, r.Notes)
	}
	if len(r.Metrics) != len(specs) {
		t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", s.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (positive && m.Value == 0):
			t.Errorf("metric %s = %v", s.Name, m.Value)
		case m.Unit != s.Unit:
			t.Errorf("metric %s has unit %q, want %q", s.Name, m.Unit, s.Unit)
		}
	}
}

// TestSmoke runs each workload end to end at toy scale: every end-to-end
// metric must come out, finite and never 0, and the answers must be right.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := runEndToEnd(w.Name, 3, 200*time.Millisecond, testScale)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, endToEndSpecs, true)
			if r.Samples["search"] == 0 || r.Samples["write"] == 0 || r.Samples["knn"] == 0 {
				t.Errorf("samples %v: every latency class needs some", r.Samples)
			}
		})
	}
}

// TestSmokeTraced runs one traced pass with the probes shrunk: every
// per-layer metric must come out and the span file must be a JSON array.
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	r, err := runTraced("point-offload", 3, 300*time.Millisecond, testScale, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, r, perLayerSpecs, false)
	for _, m := range []string{"rpcnet.chunk_reads_per_search", "nodecache.hit_ratio", "trace.overhead_ratio", "cluster.catfish_req_per_wall_s"} {
		if r.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v on point-offload, want > 0", m, r.Metrics[m].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace-point-offload.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		ID, Parent uint32
		Name, Op   string
		Start      int64 `json:"start_ns"`
		End        int64 `json:"end_ns"`
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	ids := map[uint32]bool{0: true}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.End < s.Start || s.Name == "" || !ids[s.Parent] {
			t.Fatalf("bad span %+v", s)
		}
	}
	if len(spans) < 100 {
		t.Errorf("only %d spans recorded", len(spans))
	}
}
