// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives a set of processes (goroutines) over a virtual clock.
// Exactly one process runs at a time: the engine resumes the process whose
// wake-up event is earliest, waits until it parks again (by sleeping,
// waiting on a future, popping an empty queue, or acquiring a contended
// resource), and then advances the clock to the next event. Because hand-off
// is strictly sequential and all tie-breaking uses a monotone sequence
// number, a simulation is fully deterministic for a given seed.
//
// Processes execute ordinary sequential Go code; no continuation-passing is
// needed. Real data structures (byte buffers, trees) are mutated at the
// virtual instants the model dictates, so protocol-level behaviour — torn
// reads, ring-buffer wrap-arounds, version-check retries — is exercised for
// real rather than being approximated analytically.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but processes are
// still blocked on futures, queues, or resources.
var ErrDeadlock = errors.New("sim: deadlock: blocked processes remain with no pending events")

// errKilled is the panic payload used to unwind a process goroutine when the
// engine shuts down early.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed by engine shutdown" }

// Engine is a discrete-event simulation engine. Create one with New, spawn
// processes, then call Run.
type Engine struct {
	now     time.Duration
	seq     uint64
	events  eventHeap
	parked  chan struct{}
	rng     *rand.Rand
	stopped bool

	active  int              // spawned processes that have not finished
	blocked map[*Proc]string // procs parked without a scheduled event -> reason
	procs   []*Proc          // all procs ever spawned (for shutdown)
}

// New returns an engine whose random source is seeded with seed. The same
// seed yields an identical event ordering.
func New(seed int64) *Engine {
	return &Engine{
		parked:  make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[*Proc]string),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from within processes (or before Run), never concurrently.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Stop requests that the simulation end. It may be called from within a
// process; the engine finishes the current hand-off, kills all remaining
// processes, and Run returns nil.
func (e *Engine) Stop() { e.stopped = true }

// event is a scheduled wake-up: either a process resume or an inline
// callback (used by resources' internal timers). Callbacks run on the engine
// loop and must not block.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
	fn  func()
}

type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// schedule enqueues a wake-up at absolute time at.
func (e *Engine) schedule(at time.Duration, p *Proc, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p, fn: fn})
}

// After schedules fn to run on the engine loop after delay. fn must not
// block; it typically completes futures or pushes to queues, which in turn
// schedule process resumes.
func (e *Engine) After(delay time.Duration, fn func()) {
	e.schedule(e.now+delay, nil, fn)
}

// Proc is a simulated process. All methods must be called from the process's
// own goroutine (inside the function passed to Spawn).
type Proc struct {
	e      *Engine
	name   string
	resume chan bool // true = continue, false = killed
	done   bool
}

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Rand returns the engine's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.e.rng }

// Spawn starts a new process. It may be called before Run or from within a
// running process; the new process begins executing at the current virtual
// time, after the caller next parks.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, resume: make(chan bool)}
	e.active++
	e.procs = append(e.procs, p)
	go func() {
		if !<-p.resume {
			p.finish()
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); !ok {
					panic(r)
				}
			}
			p.finish()
		}()
		fn(p)
	}()
	e.schedule(e.now, p, nil)
	return p
}

// Spawn starts a sibling process; see Engine.Spawn.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.e.Spawn(name, fn)
}

// finish marks the process done and returns control to the engine loop.
func (p *Proc) finish() {
	p.done = true
	p.e.active--
	p.e.parked <- struct{}{}
}

// yield parks the process and waits to be resumed. It panics with
// killedError when the engine is shutting down.
func (p *Proc) yield() {
	p.e.parked <- struct{}{}
	if !<-p.resume {
		panic(killedError{})
	}
}

// block parks the process with no scheduled wake-up; some other process (or
// an engine callback) must call unblock. reason is reported on deadlock.
func (p *Proc) block(reason string) {
	p.e.blocked[p] = reason
	p.yield()
}

// unblock schedules p to resume at the current virtual time. Unblocking a
// process that is not currently blocked is a no-op; this guards against
// double wake-ups (e.g. two Releases racing ahead of the head waiter).
func (e *Engine) unblock(p *Proc) {
	if _, ok := e.blocked[p]; !ok {
		return
	}
	delete(e.blocked, p)
	e.schedule(e.now, p, nil)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+d, p, nil)
	p.yield()
}

// Run executes events until none remain, Stop is called, or a deadlock is
// detected. It returns ErrDeadlock (wrapped, with the blocked process names)
// if processes remain blocked with no pending events.
func (e *Engine) Run() error {
	return e.run(-1)
}

func (e *Engine) run(horizon time.Duration) error {
	for len(e.events) > 0 && !e.stopped {
		if horizon >= 0 && e.events[0].at > horizon {
			e.now = horizon
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.p != nil && !ev.p.done:
			ev.p.resume <- true
			<-e.parked
		}
	}
	deadlocked := !e.stopped && horizon < 0 && len(e.blocked) > 0
	var names []string
	if deadlocked {
		for p, reason := range e.blocked {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, reason))
		}
		sort.Strings(names)
	}
	e.shutdown()
	if deadlocked {
		return fmt.Errorf("%w: %s", ErrDeadlock, strings.Join(names, ", "))
	}
	return nil
}

// shutdown kills every process that has not finished so no goroutines leak.
func (e *Engine) shutdown() {
	e.stopped = true
	for _, p := range e.procs {
		if !p.done {
			p.resume <- false
			<-e.parked
		}
	}
	e.events = e.events[:0]
	e.blocked = map[*Proc]string{}
}
