// Shared request dispatcher: readers hand request frames to one
// server-wide queue drained by a fixed worker pool, so ten thousand
// mostly-idle connections cost ten thousand parked readers but only
// DispatchWorkers running stacks — the C10K half of DESIGN.md §5.12. A lone
// data request on an idle server skips the queue: its reader runs it to
// completion and writes the reply itself (run), the TCP analogue of the
// paper's event-based fast messaging. One count of executing requests,
// workers and readers alike, keeps the DispatchWorkers bound.
//
// The queue doubles as the admission controller: tasks are ordered
// earliest-deadline-first (deadline-free tasks keep FIFO order among
// themselves), and once the heartbeat utilization — CPU or TX — pegs past
// ServerConfig.AdmissionUtil the server sheds rather than queues: a task
// whose deadline expired while queued, or any task arriving at a full
// queue, is answered with StatusOverloaded instead of being executed.
// Below the threshold a full queue blocks the reader (lossless TCP
// backpressure), and expired deadlines are still shed — that is the
// contract of setting a deadline at all.
package rpcnet

import (
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/wire"
)

// defaultDispatchQueue bounds the admission queue (tasks, not bytes).
const defaultDispatchQueue = 1024

// noDeadline marks a task without a latency budget; it sorts after every
// deadline-carrying task.
const noDeadline = math.MaxInt64

// dispTask is one queued request awaiting a worker: decoded once, by the
// connection's reader, or — for a batch — an owned copy of its container.
type dispTask struct {
	sc       *srvConn
	req      wire.Request // the operation (zero for a batch)
	batch    []byte       // the batch container (nil for a single operation)
	read     time.Time    // when the reader had the whole frame
	seq      uint64       // submission order; tie-break for equal deadlines
	deadline int64        // absolute UnixNano, noDeadline when unset
}

type dispatcher struct {
	s        *Server
	mu       sync.Mutex
	nonEmpty sync.Cond // a task is queued, or a slot freed for one
	notFull  sync.Cond
	heap     []dispTask // min-heap on (deadline, seq)
	seq      uint64
	max      int
	// workers bounds running, the requests executing on workers and run
	// to completion on readers together.
	workers, running int
	closed           bool
}

// Indexes of Server.rtc.
const (
	rtcInline = iota
	rtcQueued
)

// Stages of a lone data request, the index of Server.stages.
const (
	stageQueue = iota // frame read → execution start (0 when run inline)
	stageExec         // execution start → latch dropped (the request latency)
	stageSend         // reply handed to the writer → its write(2) returned
	numStages
)

var stageNames = [numStages]string{"queue", "exec", "send"}

func newDispatcher(s *Server, queue, workers int) *dispatcher {
	if queue <= 0 {
		queue = defaultDispatchQueue
	}
	if workers <= 0 {
		workers = max(2, runtime.NumCPU())
	}
	d := &dispatcher{s: s, max: queue, workers: workers}
	d.nonEmpty.L = &d.mu
	d.notFull.L = &d.mu
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go d.worker()
	}
	return d
}

// depth returns the current queue length (metrics).
func (d *dispatcher) depth() int {
	d.mu.Lock()
	n := len(d.heap)
	d.mu.Unlock()
	return n
}

// run executes one data request on the calling connection reader — reply
// written before the reader reads on — when nothing is queued, fewer than
// the worker bound are executing and no further frame is buffered behind
// it (behind false). Otherwise it queues the request like submit, and so
// it does while admission control is armed: a saturated server orders and
// sheds by deadline, which only the queue does. A frame that arrives
// meanwhile waits at most this one request.
func (d *dispatcher) run(sc *srvConn, typ wire.MsgType, frame []byte, read time.Time, behind bool) error {
	if behind || d.s.admissionArmed() || !d.enter() {
		return d.submit(sc, typ, frame, read)
	}
	defer d.leave()
	req, err := wire.DecodeRequest(frame)
	if err != nil {
		return err
	}
	s := d.s
	s.rtc[rtcInline].Add(1)
	s.stages[stageQueue][req.Type].Record(0)
	err = d.exec(dispTask{sc: sc, req: req}, read)
	s.busyNanos.Add(int64(time.Since(read)))
	return err
}

// enter takes an execution slot for a request run on its reader, if the
// queue is empty and one is free.
func (d *dispatcher) enter() bool {
	d.mu.Lock()
	ok := len(d.heap) == 0 && d.running < d.workers && !d.closed
	if ok {
		d.running++
	}
	d.mu.Unlock()
	return ok
}

// leave frees a slot taken by enter, waking a worker when a task queued
// meanwhile.
func (d *dispatcher) leave() {
	d.mu.Lock()
	d.running--
	if len(d.heap) > 0 {
		d.nonEmpty.Signal()
	}
	d.mu.Unlock()
}

// submit queues one request frame for execution, decoding a single
// operation here so no worker has to (a batch is copied instead: the caller
// reuses its buffer). When the queue is full an armed admission controller
// sheds the incoming task with StatusOverloaded; otherwise the caller
// blocks until a slot frees (backpressure). read is when the frame was read.
func (d *dispatcher) submit(sc *srvConn, typ wire.MsgType, frame []byte, read time.Time) error {
	t := dispTask{sc: sc, read: read, deadline: noDeadline}
	minUS := uint32(0)
	if typ == wire.MsgBatch {
		t.batch = append([]byte(nil), frame...)
		minUS = batchDeadlineUS(frame)
	} else {
		req, err := wire.DecodeRequest(frame)
		if err != nil {
			return err
		}
		t.req, minUS = req, req.DeadlineUS
		d.s.rtc[rtcQueued].Add(1)
	}
	if minUS != 0 {
		t.deadline = time.Now().Add(time.Duration(minUS) * time.Microsecond).UnixNano()
	}
	d.mu.Lock()
	for len(d.heap) >= d.max && !d.closed {
		if d.s.admissionArmed() {
			d.mu.Unlock()
			return d.shed(t)
		}
		d.notFull.Wait()
	}
	if d.closed {
		d.mu.Unlock()
		return net.ErrClosed
	}
	d.seq++
	t.seq = d.seq
	d.push(t)
	d.nonEmpty.Signal()
	d.mu.Unlock()
	return nil
}

// close wakes every worker and blocked submitter; workers drain the queue
// before exiting.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.nonEmpty.Broadcast()
	d.notFull.Broadcast()
	d.mu.Unlock()
}

// worker executes queued tasks while fewer than the bound are executing;
// on close it drains the queue regardless.
func (d *dispatcher) worker() {
	defer d.s.wg.Done()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for (len(d.heap) == 0 || d.running >= d.workers) && !d.closed {
			d.nonEmpty.Wait()
		}
		if len(d.heap) == 0 {
			return // closed and drained
		}
		t := d.pop()
		d.running++
		d.notFull.Signal()
		d.mu.Unlock()

		if t.deadline != noDeadline && time.Now().UnixNano() > t.deadline {
			_ = d.shed(t)
		} else {
			start := time.Now()
			d.s.stages[stageQueue][t.req.Type].Record(start.Sub(t.read))
			err := d.exec(t, start)
			d.s.busyNanos.Add(int64(time.Since(start)))
			if err != nil {
				// The connection is unusable (its writer failed); close it
				// so the reader reaps it.
				t.sc.close()
			}
		}
		d.mu.Lock()
		d.running--
	}
}

func (d *dispatcher) exec(t dispTask, start time.Time) error {
	if t.batch != nil {
		return d.s.core.Batch(exec{s: d.s, sc: t.sc}, t.batch, proto.BatchFrameLimit)
	}
	return d.s.core.Request(exec{s: d.s, sc: t.sc, op: t.req.Type, start: start}, t.req)
}

// shed answers every operation in the task with StatusOverloaded without
// executing anything.
func (d *dispatcher) shed(t dispTask) error {
	x := exec{s: d.s, sc: t.sc}
	if t.batch == nil {
		d.s.overloaded.Add(1)
		return d.s.core.Status(x, t.req.ID, wire.StatusOverloaded)
	}
	n, err := d.s.core.Refuse(x, t.batch, wire.StatusOverloaded, proto.BatchFrameLimit)
	d.s.overloaded.Add(uint64(n))
	return err
}

// batchDeadlineUS returns the tightest latency budget carried by a batch's
// operations, in microseconds (0 = none).
func batchDeadlineUS(frame []byte) uint32 {
	minUS := uint32(0)
	it, err := wire.DecodeBatch(frame)
	if err != nil {
		return 0
	}
	for {
		msg, ok := it.Next()
		if !ok {
			return minUS
		}
		req, err := wire.DecodeRequest(msg)
		if err != nil || req.DeadlineUS == 0 {
			continue
		}
		if minUS == 0 || req.DeadlineUS < minUS {
			minUS = req.DeadlineUS
		}
	}
}

// min-heap on (deadline, seq): earliest deadline first, FIFO within equal
// deadlines (deadline-free traffic is all noDeadline, so it stays FIFO).
func taskLess(a, b dispTask) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

func (d *dispatcher) push(t dispTask) {
	d.heap = append(d.heap, t)
	i := len(d.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !taskLess(d.heap[i], d.heap[parent]) {
			break
		}
		d.heap[i], d.heap[parent] = d.heap[parent], d.heap[i]
		i = parent
	}
}

func (d *dispatcher) pop() dispTask {
	t := d.heap[0]
	last := len(d.heap) - 1
	d.heap[0] = d.heap[last]
	d.heap[last] = dispTask{}
	d.heap = d.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(d.heap) && taskLess(d.heap[l], d.heap[small]) {
			small = l
		}
		if r < len(d.heap) && taskLess(d.heap[r], d.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		d.heap[i], d.heap[small] = d.heap[small], d.heap[i]
		i = small
	}
	return t
}
