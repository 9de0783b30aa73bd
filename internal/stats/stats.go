// Package stats provides the streaming measurement primitives used by the
// experiment harness: a logarithmic-bucket latency histogram with percentile
// queries (in the spirit of HDR histograms but stdlib-only), simple counters,
// and a windowed utilization/rate tracker used for the server's CPU
// heartbeats and NIC bandwidth accounting.
//
// All types in this package are NOT safe for concurrent use; the simulation
// engine runs one process at a time, and the real-network mode wraps them in
// its own synchronization.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Histogram records time.Duration samples in logarithmically spaced buckets
// and answers quantile queries with bounded relative error (~4%, 16 buckets
// per octave).
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	// histSubBits buckets per power-of-two octave: 2^4 = 16 sub-buckets,
	// bounding the relative quantile error to ~1/16.
	histSubBits = 4
	histSub     = 1 << histSubBits
	// histBuckets covers values up to ~2^40 ns (~18 minutes).
	histBuckets = 41 * histSub
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		buckets: make([]uint64, histBuckets),
		min:     math.MaxInt64,
	}
}

func bucketIndex(v time.Duration) int {
	if v < 0 {
		v = 0
	}
	n := uint64(v)
	if n < histSub {
		return int(n)
	}
	// Position of the highest set bit.
	exp := 63 - leadingZeros64(n)
	// Sub-bucket: next histSubBits bits below the top bit.
	sub := (n >> (uint(exp) - histSubBits)) & (histSub - 1)
	idx := (exp-histSubBits+1)*histSub + int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) time.Duration {
	if idx < histSub {
		return time.Duration(idx)
	}
	exp := idx/histSub + histSubBits - 1
	sub := uint64(idx % histSub)
	return time.Duration((1 << uint(exp)) | (sub << (uint(exp) - histSubBits)))
}

// Record adds one sample.
func (h *Histogram) Record(v time.Duration) {
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum) / h.count)
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) of the
// recorded samples, or 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary is a compact snapshot of a histogram used in experiment results.
type Summary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Summarize returns the summary snapshot of h.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Utilization integrates a busy signal over virtual time: callers report
// transitions between busy capacity levels, and the tracker answers "what
// fraction of capacity was used over [since, now]" — the quantity the
// Catfish server embeds into heartbeats.
type Utilization struct {
	capacity float64
	busy     float64 // current busy units (e.g. running jobs, up to capacity)

	lastChange time.Duration
	integral   float64 // busy-seconds since start

	windowStart    time.Duration
	windowIntegral float64 // busy-seconds at windowStart
}

// NewUtilization returns a tracker for a resource with the given capacity
// (for a CPU, the core count).
func NewUtilization(capacity float64) *Utilization {
	if capacity <= 0 {
		capacity = 1
	}
	return &Utilization{capacity: capacity}
}

// SetBusy records that from virtual time now onward, busy units of capacity
// are in use. busy is clamped to [0, capacity].
func (u *Utilization) SetBusy(now time.Duration, busy float64) {
	u.advance(now)
	if busy < 0 {
		busy = 0
	}
	if busy > u.capacity {
		busy = u.capacity
	}
	u.busy = busy
}

func (u *Utilization) advance(now time.Duration) {
	if now > u.lastChange {
		u.integral += u.busy * now.Seconds()
		u.integral -= u.busy * u.lastChange.Seconds()
		u.lastChange = now
	}
}

// Window returns the mean utilization (0..1) over [windowStart, now] and
// resets the window to start at now. A zero-length window returns the
// instantaneous utilization.
func (u *Utilization) Window(now time.Duration) float64 {
	u.advance(now)
	dt := (now - u.windowStart).Seconds()
	var out float64
	if dt <= 0 {
		out = u.busy / u.capacity
	} else {
		out = (u.integral - u.windowIntegral) / (dt * u.capacity)
	}
	u.windowStart = now
	u.windowIntegral = u.integral
	if out < 0 {
		out = 0
	}
	if out > 1 {
		out = 1
	}
	return out
}

// Total returns the mean utilization (0..1) from time zero to now, without
// resetting the window.
func (u *Utilization) Total(now time.Duration) float64 {
	u.advance(now)
	if now <= 0 {
		return 0
	}
	out := u.integral / (now.Seconds() * u.capacity)
	if out > 1 {
		out = 1
	}
	return out
}

// ByteMeter accumulates transferred bytes so the harness can report link
// bandwidth (the right y-axis of the paper's Fig 2).
type ByteMeter struct {
	bytes uint64
}

// Add records n transferred bytes.
func (m *ByteMeter) Add(n int) {
	if n > 0 {
		m.bytes += uint64(n)
	}
}

// Bytes returns the total transferred bytes.
func (m *ByteMeter) Bytes() uint64 { return m.bytes }

// Gbps returns the mean rate in gigabits per second over elapsed.
func (m *ByteMeter) Gbps(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / elapsed.Seconds() / 1e9
}

// Table renders rows of numbers as an aligned text table; used by the
// benchmark driver to print per-figure result tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		_ = i
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
