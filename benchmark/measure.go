package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Op classes. A latency metric is the class's percentile; classOther ops
// (the paced inserts of point-offload) count as work but report no latency.
const (
	classSearch = iota
	classWrite
	classKNN
	classOther
	nClass
)

var classNames = [nClass]string{"search", "write", "knn", "other"}

type sample struct {
	ns    int32
	class uint8
}

// stream is one closed-loop client goroutine: it issues step(i) for
// i = 0, 1, … and waits for each reply before the next, as the paper's §V
// clients do. A positive interval paces it on an absolute schedule instead
// (the point-offload writer), and a gate makes it wait for a token before
// each op (the moving-fleet searcher, one search per few ops of the MOVE
// client), so the work a second stream adds is the same on every run.
type stream struct {
	step     func(i int) (class uint8, err error)
	interval time.Duration
	gate     <-chan struct{}

	samples []sample     // one per OK op, in completion order
	n       atomic.Int64 // len(samples), readable from the leader
	failed  int64
	err     error  // the first failure, for the report
	spans   []span // traced runs only
}

// cut is the process state at one slice boundary.
type cut struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process
	mallocs uint64
	tx      uint64  // Server.Stats().TXBytes
	n       []int64 // per stream: ops completed
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapMallocs reads the cumulative object-allocation count without
// stopping the world (runtime.ReadMemStats would).
func heapMallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func takeCut(streams []*stream, tx func() uint64) cut {
	c := cut{at: time.Now(), cpu: processCPU(), mallocs: heapMallocs(), tx: tx(), n: make([]int64, len(streams))}
	for i, s := range streams {
		c.n[i] = s.n.Load()
	}
	return c
}

// runWindow drives every stream for warm + window and returns slices+1
// cuts: the first at the end of the warm-up, the rest window/slices apart. streams[0] is the leader: it runs on the calling
// goroutine and takes the cuts between two of its own ops, so no op's
// latency contains one. tr is nil unless the run is traced.
func runWindow(streams []*stream, tx func() uint64, warm, window time.Duration, slices int, tr *tracer) []cut {
	var stop atomic.Bool
	done := make(chan struct{}) // closed with stop, to release a gated stream
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range streams[1:] {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if s.interval > 0 {
					if d := time.Until(start.Add(time.Duration(i) * s.interval)); d > 0 {
						time.Sleep(d)
					}
				}
				if s.gate != nil {
					select {
					case <-s.gate:
					case <-done:
						return
					}
				}
				s.issue(i, tr)
			}
		}(s)
	}
	cuts := make([]cut, 0, slices+1)
	next := start.Add(warm)
	lead := streams[0]
	for i := 0; len(cuts) <= slices; i++ {
		if end := lead.issue(i, tr); !end.Before(next) {
			if len(cuts) == 0 {
				runtime.GC() // open the window from the same collector state on every run
			}
			c := takeCut(streams, tx)
			cuts = append(cuts, c)
			// Every slice gets its full length even when a stall made this
			// cut late; the window then runs that much longer.
			next = c.at.Add(window / time.Duration(slices))
		}
	}
	stop.Store(true)
	close(done)
	wg.Wait()
	return cuts
}

// issue runs op i, records it, and returns its completion time.
func (s *stream) issue(i int, tr *tracer) time.Time {
	t0 := time.Now()
	class, err := s.step(i)
	t1 := time.Now()
	if err != nil {
		if s.failed++; s.err == nil {
			s.err = fmt.Errorf("%s op %d: %w", classNames[class], i, err)
		}
		return t1
	}
	if tr != nil {
		s.spans = append(s.spans, tr.span(class, t0, t1))
	}
	ns := t1.Sub(t0)
	if ns > math.MaxInt32 {
		ns = math.MaxInt32
	}
	s.samples = append(s.samples, sample{ns: int32(ns), class: class})
	s.n.Add(1)
	return t1
}

// percentile returns the q-quantile of sorted and whether at least minTail
// samples lie beyond it — the rule that a reported tail must be supported.
func percentile(sorted []int32, q float64, minTail int) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]), len(sorted)-1-idx >= minTail
}

// steady is the value reported for a metric measured once per slice: the
// quartile of the slices on the metric's better side. The host this runs
// on slows the whole VM by 10–40 % for fractions of a second at a time, and
// interference only ever makes a slice slower, so the least-disturbed
// quarter of the slices estimates the program's own cost far more
// repeatably than their median does (README.md, "Repeatability").
func steady(series []float64, better string) float64 {
	s := append([]float64(nil), series...)
	slices.Sort(s)
	at := 0.25
	if better == "higher" {
		at = 0.75
	}
	pos := at * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencyGroups collects, per op class, one sorted latency group per
// slice: the samples every stream completed between two cuts.
type latencyGroups [nClass][][]int32

func (g *latencyGroups) addSlices(streams []*stream, cuts []cut) {
	for k := 0; k+1 < len(cuts); k++ {
		var by [nClass][]int32
		for si, s := range streams {
			for _, sm := range s.samples[cuts[k].n[si]:cuts[k+1].n[si]] {
				by[sm.class] = append(by[sm.class], sm.ns)
			}
		}
		for c := range by {
			g.add(c, by[c])
		}
	}
}

func (g *latencyGroups) add(class int, ns []int32) {
	if len(ns) == 0 {
		return
	}
	slices.Sort(ns)
	g[class] = append(g[class], ns)
}

func (g *latencyGroups) count(class int) int {
	n := 0
	for _, grp := range g[class] {
		n += len(grp)
	}
	return n
}

// quantilesUS returns the q-quantile of the class in each group, in µs, in
// slice order. A group with fewer than minTail samples beyond the quantile
// cannot support it and is left out (a stall can starve one slice); when
// more than half are, the metric cannot be supported and that is an error,
// never a silently dropped or made-up number.
func (g *latencyGroups) quantilesUS(class int, q float64, minTail int) ([]float64, error) {
	per := make([]float64, 0, len(g[class]))
	for _, grp := range g[class] {
		if v, ok := percentile(grp, q, minTail); ok {
			per = append(per, v/1e3)
		}
	}
	if len(per) == 0 || 2*len(per) < len(g[class]) {
		return nil, fmt.Errorf("%s p%g: %d of %d slices have %d samples beyond the percentile",
			classNames[class], q*100, len(per), len(g[class]), minTail)
	}
	return per, nil
}

// windowRates are the per-op costs of each slice, in slice order.
type windowRates struct {
	opsPerS, cpuUSPerOp, allocsPerOp, txBytesPerOp []float64
	seconds                                        float64
}

func ratesOf(cuts []cut) (windowRates, error) {
	var r windowRates
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		var n int64
		for i := range a.n {
			n += b.n[i] - a.n[i]
		}
		if n == 0 {
			return r, fmt.Errorf("slice %d completed no operation", k)
		}
		dur := b.at.Sub(a.at).Seconds()
		r.seconds += dur
		r.opsPerS = append(r.opsPerS, float64(n)/dur)
		r.cpuUSPerOp = append(r.cpuUSPerOp, float64(b.cpu-a.cpu)/1e3/float64(n))
		r.allocsPerOp = append(r.allocsPerOp, float64(b.mallocs-a.mallocs)/float64(n))
		r.txBytesPerOp = append(r.txBytesPerOp, float64(b.tx-a.tx)/float64(n))
	}
	return r, nil
}
