// Package telemetry is the unified observability layer of the repo: a
// race-safe registry of named counters, gauges, and latency histograms, the
// shared client counter surface (ClientMetrics / ClientSnapshot) used by
// both the simulated and the real-TCP transports, and a bounded-memory
// per-search trace ring recording the adaptive decision path of Algorithm 1.
//
// The registry is deliberately small: metrics are identified by a
// Prometheus-style name plus optional label pairs, values are either owned
// by the registry (Counter/Gauge/Histogram) or sampled at scrape time from
// a callback (CounterFunc/GaugeFunc) reading counters that live elsewhere —
// the latter is how the transports expose their existing atomic counters
// without double bookkeeping. WritePrometheus renders the text exposition
// format; see NewAdminMux for the live HTTP surface.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically updated float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a race-safe latency histogram built on stats.Histogram
// behind an atomic-swap snapshot: recorders lock only the active shard,
// and Snapshot swaps in a fresh shard before merging the retired one into
// the cumulative distribution, so a snapshot observes a consistent
// histogram without stalling the hot path for the duration of the merge.
type Histogram struct {
	active atomic.Pointer[histShard]

	// snapMu serializes snapshots and guards cum.
	snapMu sync.Mutex
	cum    *stats.Histogram
}

type histShard struct {
	mu      sync.Mutex
	retired bool
	h       *stats.Histogram
}

// NewHistogram returns an empty race-safe histogram.
func NewHistogram() *Histogram {
	h := &Histogram{cum: stats.NewHistogram()}
	h.active.Store(&histShard{h: stats.NewHistogram()})
	return h
}

// Record adds one sample. Safe for concurrent use with other Records and
// with Snapshot; a nil *Histogram is a valid no-op sink.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	for {
		s := h.active.Load()
		s.mu.Lock()
		if s.retired {
			// A snapshot swapped and merged this shard between our load and
			// lock; recording into it would lose the sample. Retry against
			// the fresh shard.
			s.mu.Unlock()
			continue
		}
		s.h.Record(d)
		s.mu.Unlock()
		return
	}
}

// Snapshot folds the active shard into the cumulative distribution and
// returns its summary.
func (h *Histogram) Snapshot() stats.Summary {
	if h == nil {
		return stats.Summary{}
	}
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	old := h.active.Swap(&histShard{h: stats.NewHistogram()})
	old.mu.Lock()
	old.retired = true
	h.cum.Merge(old.h)
	old.mu.Unlock()
	return h.cum.Summarize()
}

// Kind classifies a registered metric for exposition.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// Point is one scraped metric value (histograms expand to several Points in
// the Prometheus exposition; Snapshot reports them as one Point with the
// summary attached).
type Point struct {
	Name    string // full name including labels
	Kind    Kind
	Value   float64       // counter/gauge value
	Summary stats.Summary // histogram summary (KindHistogram only)
}

type metric struct {
	base    string // name without labels (for TYPE comments and sorting)
	kind    Kind
	counter func() uint64
	gauge   func() float64
	hist    *Histogram
	owned   any // the *Counter/*Gauge created by the registry, if any
}

// Registry is a race-safe set of named metrics. The zero value is not
// usable; call NewRegistry. A nil *Registry is a valid no-op sink: every
// getter returns a live (but unregistered) metric, so instrumented code
// never branches on whether telemetry is wired.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order for stable iteration

	// labels are appended to every metric registered through this handle
	// (scoped views created by With share the underlying maps).
	labels string
	root   *Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// With returns a scoped view of the registry that appends the given
// label key/value pairs to every metric name registered through it. The
// view shares the underlying metric set; scraping the root sees everything.
func (r *Registry) With(kv ...string) *Registry {
	if r == nil {
		return nil
	}
	root := r.base()
	return &Registry{labels: joinLabels(r.labels, kv), root: root}
}

func (r *Registry) base() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

func joinLabels(prev string, kv []string) string {
	var b strings.Builder
	b.WriteString(prev)
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// fullName renders name plus the scope's labels and any extra pairs.
func (r *Registry) fullName(name string, kv []string) (full, base string) {
	labels := joinLabels(r.labels, kv)
	if labels == "" {
		return name, name
	}
	return name + "{" + labels + "}", name
}

// register installs m under full, or returns the existing metric of the
// same name (get-or-create semantics; kinds must agree).
func (r *Registry) register(full, base string, m *metric) *metric {
	root := r.base()
	root.mu.Lock()
	defer root.mu.Unlock()
	if have, ok := root.metrics[full]; ok {
		if have.kind != m.kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as a different kind", full))
		}
		return have
	}
	m.base = base
	root.metrics[full] = m
	root.order = append(root.order, full)
	return m
}

// Histogram returns the latency histogram registered under name, creating
// it on first use.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	full, base := r.fullName(name, kv)
	h := NewHistogram()
	m := r.register(full, base, &metric{kind: KindHistogram, hist: h})
	return m.hist
}

// CounterFunc registers a counter sampled from f at scrape time — the hook
// for exposing counters that live elsewhere (client/server atomic stats).
// Re-registering the same name replaces nothing and keeps the first hook.
func (r *Registry) CounterFunc(name string, f func() uint64, kv ...string) {
	if r == nil {
		return
	}
	full, base := r.fullName(name, kv)
	r.register(full, base, &metric{kind: KindCounter, counter: f})
}

// GaugeFunc registers a gauge sampled from f at scrape time.
func (r *Registry) GaugeFunc(name string, f func() float64, kv ...string) {
	if r == nil {
		return
	}
	full, base := r.fullName(name, kv)
	r.register(full, base, &metric{kind: KindGauge, gauge: f})
}

// Snapshot scrapes every metric into a sorted []Point.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	root := r.base()
	root.mu.Lock()
	names := append([]string(nil), root.order...)
	ms := make([]*metric, len(names))
	for i, n := range names {
		ms[i] = root.metrics[n]
	}
	root.mu.Unlock()

	pts := make([]Point, 0, len(names))
	for i, m := range ms {
		p := Point{Name: names[i], Kind: m.kind}
		switch m.kind {
		case KindCounter:
			p.Value = float64(m.counter())
		case KindGauge:
			p.Value = m.gauge()
		case KindHistogram:
			p.Summary = m.hist.Snapshot()
		}
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Name < pts[j].Name })
	return pts
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms are rendered as summaries with
// quantile labels, a _sum (seconds), and a _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	pts := r.Snapshot()
	typed := make(map[string]bool)
	root := r.base()
	for _, p := range pts {
		base := p.Name
		root.mu.Lock()
		if m, ok := root.metrics[p.Name]; ok {
			base = m.base
		}
		root.mu.Unlock()
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typeName(p.Kind)); err != nil {
				return err
			}
		}
		switch p.Kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", p.Name, uint64(p.Value)); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "%s %g\n", p.Name, p.Value); err != nil {
				return err
			}
		case KindHistogram:
			if err := writeSummary(w, p.Name, base, p.Summary); err != nil {
				return err
			}
		}
	}
	return nil
}

func typeName(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// writeSummary renders one histogram as Prometheus summary series. full is
// the labelled name, base the bare one; quantile labels merge with any
// existing label set.
func writeSummary(w io.Writer, full, base string, s stats.Summary) error {
	q := func(label string, v time.Duration) string {
		return withLabel(full, base, fmt.Sprintf("quantile=%q", label)) +
			fmt.Sprintf(" %g\n", v.Seconds())
	}
	var b strings.Builder
	b.WriteString(q("0.5", s.P50))
	b.WriteString(q("0.95", s.P95))
	b.WriteString(q("0.99", s.P99))
	fmt.Fprintf(&b, "%s %g\n", suffixed(full, base, "_sum"),
		(time.Duration(s.Count) * s.Mean).Seconds())
	fmt.Fprintf(&b, "%s %d\n", suffixed(full, base, "_count"), s.Count)
	_, err := io.WriteString(w, b.String())
	return err
}

// withLabel inserts an extra label pair into a (possibly already labelled)
// metric name.
func withLabel(full, base, label string) string {
	if full == base {
		return base + "{" + label + "}"
	}
	// full = base{...}: splice before the closing brace.
	return full[:len(full)-1] + "," + label + "}"
}

// suffixed appends suffix to the base name, preserving the label set.
func suffixed(full, base, suffix string) string {
	if full == base {
		return base + suffix
	}
	return base + suffix + full[len(base):]
}
