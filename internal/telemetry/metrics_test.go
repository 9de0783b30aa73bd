package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the text exposition format byte-for-byte.
// Histogram samples below 16ns map to exact buckets, so the summary
// quantiles are deterministic.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("alpha_total").Add(3)
	reg.Gauge("beta").Set(0.5)
	reg.With("shard", "0").Counter("gamma_total").Add(7)
	h := reg.Histogram("lat_seconds")
	for i := 0; i < 4; i++ {
		h.Record(10 * time.Nanosecond)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE alpha_total counter
alpha_total 3
# TYPE beta gauge
beta 0.5
# TYPE gamma_total counter
gamma_total{shard="0"} 7
# TYPE lat_seconds summary
lat_seconds{quantile="0.5"} 1e-08
lat_seconds{quantile="0.95"} 1e-08
lat_seconds{quantile="0.99"} 1e-08
lat_seconds_sum 4e-08
lat_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusLabelledSummary checks that quantile labels splice into
// an existing label set and that _sum/_count keep the labels after the
// suffix.
func TestWritePrometheusLabelledSummary(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("req_seconds", "op", "search").Record(8 * time.Nanosecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`# TYPE req_seconds summary`,
		`req_seconds{op="search",quantile="0.5"} 8e-09`,
		`req_seconds_sum{op="search"} 8e-09`,
		`req_seconds_count{op="search"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestRegistryGetOrCreate: fetching the same name twice must return the same
// underlying metric, and scoped views must share the root's metric set.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total")
	a.Inc()
	b := reg.Counter("x_total")
	b.Inc()
	if a != b {
		t.Error("same name returned distinct counters")
	}
	if got := a.Load(); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}

	v1 := reg.With("shard", "1")
	v2 := reg.With("shard", "1")
	c1 := v1.Counter("y_total")
	c2 := v2.Counter("y_total")
	if c1 != c2 {
		t.Error("equal-labelled views returned distinct counters")
	}
	c1.Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `y_total{shard="1"} 1`) {
		t.Errorf("root scrape missing scoped counter:\n%s", sb.String())
	}
}

// TestRegistryKindMismatchPanics: re-registering a name as a different kind
// is a programming error and must fail loudly.
func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("z_total")
}

// TestNilSinks: a nil registry, histogram, and tracer must be valid no-op
// sinks so instrumented code never branches on telemetry being wired.
func TestNilSinks(t *testing.T) {
	var reg *Registry
	reg.Counter("a_total").Inc()
	reg.Gauge("b").Set(1)
	reg.Histogram("c").Record(time.Millisecond)
	reg.CounterFunc("d_total", func() uint64 { return 0 })
	reg.GaugeFunc("e", func() float64 { return 0 })
	if pts := reg.Snapshot(); pts != nil {
		t.Errorf("nil registry snapshot = %v, want nil", pts)
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if reg.With("k", "v") != nil {
		t.Error("nil registry With != nil")
	}

	var h *Histogram
	h.Record(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram count = %d", s.Count)
	}

	var tr *Tracer
	tr.Record(Trace{})
	if tr.Total() != 0 || tr.Len() != 0 || tr.Cap() != 0 || tr.Dump() != nil {
		t.Error("nil tracer is not a no-op")
	}
}

// TestCounterFuncSamplesLive: function metrics must read through to the
// backing counter at scrape time.
func TestCounterFuncSamplesLive(t *testing.T) {
	reg := NewRegistry()
	var m ClientMetrics
	m.Register(reg)
	m.FastSearches.Add(5)
	m.OffloadSearches.Add(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"catfish_client_fast_searches_total 5",
		"catfish_client_offload_searches_total 2",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestHistogramConcurrent hammers Record against Snapshot; run under -race
// this exercises the atomic-swap shard design, and the final snapshot must
// not lose a single sample to the swap window.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const (
		writers = 8
		perG    = 5000
	)
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper racing the recorders
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(i%97) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	if got := h.Snapshot().Count; got != writers*perG {
		t.Fatalf("samples lost to the swap window: have %d, want %d", got, writers*perG)
	}
}

// TestRegistryConcurrent hammers get-or-create, counter increments, and
// scrapes from many goroutines; meaningful under -race.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := reg.With("shard", string(rune('0'+g%4)))
			for i := 0; i < 2000; i++ {
				view.Counter("ops_total").Inc()
				view.Gauge("util").Set(float64(i))
				view.Histogram("lat_seconds").Record(time.Duration(i) * time.Nanosecond)
				if i%100 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, p := range reg.Snapshot() {
		if strings.HasPrefix(p.Name, "ops_total") && p.Kind == KindCounter {
			total += uint64(p.Value)
		}
	}
	if total != 8*2000 {
		t.Errorf("ops_total sum = %d, want %d", total, 8*2000)
	}
}

// TestClientSnapshotAdd checks the field-by-field aggregation helper.
func TestClientSnapshotAdd(t *testing.T) {
	a := ClientSnapshot{FastSearches: 1, OffloadSearches: 2, NodesFetched: 3, CacheBytesSaved: 4}
	b := ClientSnapshot{FastSearches: 10, TCPSearches: 5, NodesFetched: 30, BatchedOps: 7}
	sum := a.Add(b)
	if sum.FastSearches != 11 || sum.OffloadSearches != 2 || sum.TCPSearches != 5 ||
		sum.NodesFetched != 33 || sum.CacheBytesSaved != 4 || sum.BatchedOps != 7 {
		t.Errorf("Add = %+v", sum)
	}
	if got := sum.Searches(); got != 18 {
		t.Errorf("Searches = %d, want 18", got)
	}
	if got := sum.OffloadFraction(); got != 2.0/18.0 {
		t.Errorf("OffloadFraction = %g", got)
	}
	if (ClientSnapshot{}).OffloadFraction() != 0 {
		t.Error("empty OffloadFraction != 0")
	}
}

// Counter returns the counter registered under name (+ optional label
// pairs), creating it on first use. On a nil registry the counter is live
// but unregistered.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	c := &Counter{}
	if r == nil {
		return c
	}
	full, base := r.fullName(name, kv)
	m := r.register(full, base, &metric{kind: KindCounter, counter: c.Load, owned: c})
	// An existing registration keeps its own counter.
	if got, ok := m.owned.(*Counter); ok {
		return got
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	g := &Gauge{}
	if r == nil {
		return g
	}
	full, base := r.fullName(name, kv)
	m := r.register(full, base, &metric{kind: KindGauge, gauge: g.Load, owned: g})
	if got, ok := m.owned.(*Gauge); ok {
		return got
	}
	return g
}
