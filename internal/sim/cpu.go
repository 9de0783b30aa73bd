package sim

import (
	"math"
	"time"

	"github.com/catfish-db/catfish/internal/stats"
)

// CPU models a multi-core processor under processor sharing: n concurrent
// jobs on c cores each progress at rate min(1, c/n). This is the model used
// for event-based servers and for client-side CPUs — threads block when they
// have no work, so the CPU is work-conserving and latency grows linearly
// with oversubscription (the behaviour of the paper's event-based fast
// messaging, Fig 7).
type CPU struct {
	e        *Engine
	cores    float64
	jobs     []*cpuJob // insertion order, for deterministic completions
	last     time.Duration
	timerGen uint64
	util     *stats.Utilization
}

type cpuJob struct {
	remaining float64 // seconds of service demand left
	fut       *Future[struct{}]
}

// NewCPU returns a processor-sharing CPU with the given core count.
func NewCPU(e *Engine, cores int) *CPU {
	if cores < 1 {
		cores = 1
	}
	return &CPU{
		e:     e,
		cores: float64(cores),
		util:  stats.NewUtilization(float64(cores)),
	}
}

// rate returns the per-job progress rate under the current job count.
func (c *CPU) rate() float64 {
	n := float64(len(c.jobs))
	if n <= c.cores {
		return 1
	}
	return c.cores / n
}

// advance applies elapsed virtual time to all jobs' remaining demand.
func (c *CPU) advance() {
	now := c.e.Now()
	if now > c.last && len(c.jobs) > 0 {
		dec := (now - c.last).Seconds() * c.rate()
		for _, j := range c.jobs {
			j.remaining -= dec
		}
	}
	c.last = now
}

// cpuEps (seconds) absorbs float rounding in remaining demand. The engine
// clock has nanosecond granularity, so anything under 2 ns of residual work
// counts as done — otherwise truncation in the timer conversion could
// produce a zero-delay reschedule loop.
const cpuEps = 2e-9

// completeReady finishes all jobs whose demand is exhausted, in insertion
// order, keeping the simulation deterministic.
func (c *CPU) completeReady() {
	keep := c.jobs[:0]
	var done []*cpuJob
	for _, j := range c.jobs {
		if j.remaining <= cpuEps {
			done = append(done, j)
		} else {
			keep = append(keep, j)
		}
	}
	for i := len(keep); i < len(c.jobs); i++ {
		c.jobs[i] = nil
	}
	c.jobs = keep
	for _, j := range done {
		j.fut.Complete(struct{}{})
	}
	c.util.SetBusy(c.e.Now(), math.Min(float64(len(c.jobs)), c.cores))
}

// reschedule arms the engine timer for the next job completion.
func (c *CPU) reschedule() {
	c.timerGen++
	if len(c.jobs) == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, j := range c.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	// Round up to the next nanosecond so the timer always lands at or after
	// the true completion instant.
	wait := time.Duration(minRem/c.rate()*float64(time.Second)) + 1
	gen := c.timerGen
	c.e.After(wait, func() {
		if gen != c.timerGen {
			return
		}
		c.advance()
		c.completeReady()
		c.reschedule()
	})
}

// Run blocks the process while the CPU serves demand of work, sharing cores
// with all concurrent jobs.
func (c *CPU) Run(p *Proc, demand time.Duration) {
	if demand <= 0 {
		return
	}
	c.advance()
	j := &cpuJob{remaining: demand.Seconds(), fut: NewFuture[struct{}](c.e)}
	c.jobs = append(c.jobs, j)
	c.util.SetBusy(c.e.Now(), math.Min(float64(len(c.jobs)), c.cores))
	c.reschedule()
	j.fut.Wait(p)
}

// Submit charges demand to the CPU without blocking the caller; the returned
// future completes when the work finishes. Used for kernel-side TCP
// processing that overlaps the sender's own progress.
func (c *CPU) Submit(demand time.Duration) *Future[struct{}] {
	fut := NewFuture[struct{}](c.e)
	if demand <= 0 {
		fut.Complete(struct{}{})
		return fut
	}
	c.advance()
	j := &cpuJob{remaining: demand.Seconds(), fut: fut}
	c.jobs = append(c.jobs, j)
	c.util.SetBusy(c.e.Now(), math.Min(float64(len(c.jobs)), c.cores))
	c.reschedule()
	return fut
}

// UtilizationWindow returns mean utilization (0..1) since the previous call
// and resets the window; this is what the Catfish server embeds in its
// heartbeats.
func (c *CPU) UtilizationWindow() float64 {
	c.advance()
	return c.util.Window(c.e.Now())
}

// UtilizationTotal returns mean utilization from time zero to now.
func (c *CPU) UtilizationTotal() float64 {
	c.advance()
	return c.util.Total(c.e.Now())
}

// PollCPU models a multi-core processor running busy-polling worker threads
// (the paper's polling-based fast messaging, and FaRM's dispatch model).
// Threads are pinned round-robin to cores. A polling thread that holds the
// CPU and finds no message burns a poll slice before the next thread runs,
// so every request pays a "poll tax" proportional to the number of thread
// neighbours on its core, and a request arriving at an idle core still waits
// a random rotation phase. Under oversubscription this produces the
// superlinear latency growth of the paper's Fig 7(a).
type PollCPU struct {
	e         *Engine
	pollSlice time.Duration
	cores     []*pollCore
	next      int
	useful    *stats.Utilization
}

type pollCore struct {
	threads   int
	busyUntil time.Duration
	inflight  int
}

// NewPollCPU returns a polling CPU with the given core count. pollSlice is
// the time one idle thread holds a core per rotation (poll loop iteration
// plus context switch).
func NewPollCPU(e *Engine, cores int, pollSlice time.Duration) *PollCPU {
	if cores < 1 {
		cores = 1
	}
	c := &PollCPU{
		e:         e,
		pollSlice: pollSlice,
		cores:     make([]*pollCore, cores),
		useful:    stats.NewUtilization(float64(cores)),
	}
	for i := range c.cores {
		c.cores[i] = &pollCore{}
	}
	return c
}

// PollThread is one busy-polling worker thread registered on a PollCPU.
type PollThread struct {
	cpu  *PollCPU
	core *pollCore
}

// Register adds a worker thread, pinning it to the next core round-robin.
func (c *PollCPU) Register() *PollThread {
	core := c.cores[c.next%len(c.cores)]
	c.next++
	core.threads++
	return &PollThread{cpu: c, core: core}
}

// Process blocks the process for the scheduling delay plus service time of a
// request with the given CPU demand, executed by this polling thread.
func (t *PollThread) Process(p *Proc, demand time.Duration) {
	c, core := t.cpu, t.core
	now := p.Now()
	start := core.busyUntil
	if start < now {
		// Core was idle: the request waits a random fraction of a full
		// rotation of its core-mates' poll slices before its thread runs.
		idle := core.threads - 1
		phase := time.Duration(p.Rand().Float64() * float64(idle) * float64(c.pollSlice))
		start = now + phase
	}
	tax := time.Duration(core.threads-1) * c.pollSlice
	core.busyUntil = start + demand + tax
	core.inflight++
	c.track()
	p.Sleep(core.busyUntil - now)
	core.inflight--
	c.track()
}

func (c *PollCPU) track() {
	busy := 0.0
	for _, core := range c.cores {
		if core.inflight > 0 {
			busy++
		}
	}
	c.useful.SetBusy(c.e.Now(), busy)
}

// UsefulUtilizationTotal returns the fraction of CPU time spent on request
// work (as opposed to polling) from time zero to now. The raw utilization of
// a polling CPU is always 1.0 once threads are registered.
func (c *PollCPU) UsefulUtilizationTotal() float64 {
	return c.useful.Total(c.e.Now())
}

// UtilizationWindow reports 1.0 whenever any thread is registered — busy
// polling pegs the cores, which is exactly what the server's heartbeat would
// observe.
func (c *PollCPU) UtilizationWindow() float64 {
	for _, core := range c.cores {
		if core.threads > 0 {
			return 1.0
		}
	}
	return 0
}

// Pipe models a serialized transmission resource (one direction of a NIC or
// link): transfers queue FIFO and occupy the pipe for size/bandwidth. It
// does not block processes; callers schedule their own sleeps from the
// returned completion times.
type Pipe struct {
	bytesPerSec float64
	nextFree    time.Duration
	meter       stats.ByteMeter
}

// NewPipe returns a pipe with the given bandwidth in bits per second.
func NewPipe(bitsPerSec float64) *Pipe {
	return &Pipe{bytesPerSec: bitsPerSec / 8}
}

// Reserve books a transfer of size bytes starting no earlier than now and
// returns the time the last byte leaves the pipe.
func (l *Pipe) Reserve(now time.Duration, size int) time.Duration {
	if size < 0 {
		size = 0
	}
	tx := time.Duration(float64(size) / l.bytesPerSec * float64(time.Second))
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	l.nextFree = start + tx
	l.meter.Add(size)
	return l.nextFree
}

// Bytes returns the total bytes transferred through the pipe.
func (l *Pipe) Bytes() uint64 { return l.meter.Bytes() }

// Gbps returns the mean rate over elapsed.
func (l *Pipe) Gbps(elapsed time.Duration) float64 { return l.meter.Gbps(elapsed) }
