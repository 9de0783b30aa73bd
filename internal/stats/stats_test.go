package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram should report zeros: %+v", h.Summarize())
	}
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty Quantile = %v, want 0", h.Quantile(0.5))
	}
}

func TestHistogramSingle(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	s := h.Summarize()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 100*time.Microsecond || s.Max != 100*time.Microsecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 100*time.Microsecond {
		t.Errorf("mean = %v", s.Mean)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got != 100*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want 100µs", q, got)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var samples []time.Duration
	for i := 0; i < 50000; i++ {
		// Log-uniform between 1µs and 10ms.
		v := time.Duration(float64(time.Microsecond) *
			pow(10, rng.Float64()*4))
		samples = append(samples, v)
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := Percentile(samples, q)
		got := h.Quantile(q)
		ratio := float64(got) / float64(exact)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("Quantile(%v) = %v, exact %v (ratio %.3f)", q, got, exact, ratio)
		}
	}
}

func pow(b, e float64) float64 {
	out := 1.0
	for e >= 1 {
		out *= b
		e--
	}
	if e > 0 {
		// Linear blend is fine for test sample generation.
		out *= 1 + e*(b-1)
	}
	return out
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
	}
	for i := 101; i <= 200; i++ {
		b.Record(time.Duration(i) * time.Microsecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Microsecond || a.Max() != 200*time.Microsecond {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("Reset did not clear")
	}
	h.Record(2 * time.Millisecond)
	if h.Min() != 2*time.Millisecond {
		t.Errorf("min after reset = %v", h.Min())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * time.Microsecond) // clamped into bucket 0
	if h.Count() != 1 {
		t.Error("negative sample not recorded")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		h := NewHistogram()
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Record(time.Duration(rng.Int63n(int64(time.Second))))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationBasic(t *testing.T) {
	u := NewUtilization(4)
	u.SetBusy(0, 4)
	u.SetBusy(100*time.Millisecond, 0)
	got := u.Window(200 * time.Millisecond)
	if got < 0.49 || got > 0.51 {
		t.Errorf("window util = %v, want ~0.5", got)
	}
	// After resetting the window, an idle interval reads as 0.
	got = u.Window(300 * time.Millisecond)
	if got != 0 {
		t.Errorf("idle window util = %v, want 0", got)
	}
}

func TestUtilizationClamp(t *testing.T) {
	u := NewUtilization(2)
	u.SetBusy(0, 100) // clamped to capacity
	got := u.Window(time.Second)
	if got != 1 {
		t.Errorf("over-busy window util = %v, want 1", got)
	}
	u.SetBusy(time.Second, -3) // clamped to zero
	if got := u.Window(2 * time.Second); got != 0 {
		t.Errorf("negative-busy window util = %v, want 0", got)
	}
}

func TestUtilizationTotal(t *testing.T) {
	u := NewUtilization(1)
	u.SetBusy(0, 1)
	u.SetBusy(time.Second, 0)
	got := u.Total(4 * time.Second)
	if got < 0.24 || got > 0.26 {
		t.Errorf("total util = %v, want 0.25", got)
	}
	if u.Total(0) != 0 {
		t.Error("Total(0) should be 0")
	}
}

func TestByteMeter(t *testing.T) {
	var m ByteMeter
	m.Add(1000)
	m.Add(-5) // ignored
	m.Add(250)
	if m.Bytes() != 1250 {
		t.Errorf("bytes = %d", m.Bytes())
	}
	// 1250 bytes over 1µs = 10 Gbps.
	got := m.Gbps(time.Microsecond)
	if got < 9.99 || got > 10.01 {
		t.Errorf("Gbps = %v, want 10", got)
	}
	if m.Gbps(0) != 0 {
		t.Error("Gbps(0) should be 0")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("scheme", "kops")
	tb.AddRow("catfish", "1239.4")
	tb.AddRow("fastmsg", "377.9", "extra-dropped")
	out := tb.String()
	if out == "" {
		t.Fatal("empty table output")
	}
	for _, want := range []string{"scheme", "catfish", "1239.4", "fastmsg"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if contains(out, "extra-dropped") {
		t.Error("overflow cell should have been dropped")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty Percentile should be 0")
	}
	samples := []time.Duration{5, 1, 4, 2, 3}
	if got := Percentile(samples, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Percentile(samples, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(samples, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%1000000) * time.Nanosecond)
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Percentile returns the p-quantile (0..1) of the given exact samples. It
// sorts a copy; intended for small test vectors, not hot paths.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]time.Duration, len(samples))
	copy(cp, samples)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(p * float64(len(cp)))
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return cp[idx]
}
