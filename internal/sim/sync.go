package sim

// Future is a one-shot value that processes can wait on. The zero value is
// not usable; create futures with NewFuture.
type Future[T any] struct {
	e         *Engine
	done      bool
	val       T
	waiters   []*Proc
	callbacks []func(T)
}

// NewFuture returns an incomplete future bound to e.
func NewFuture[T any](e *Engine) *Future[T] {
	return &Future[T]{e: e}
}

// Complete resolves the future with v and wakes all waiters at the current
// virtual time. Completing an already-complete future is a no-op (the first
// value wins), which mirrors the idempotence of hardware completion events.
func (f *Future[T]) Complete(v T) {
	if f.done {
		return
	}
	f.done = true
	f.val = v
	for _, p := range f.waiters {
		f.e.unblock(p)
	}
	f.waiters = nil
	for _, fn := range f.callbacks {
		fn(v)
	}
	f.callbacks = nil
}

// Then registers fn to run when the future completes (immediately if it
// already has). Callbacks run inline in whatever context completes the
// future and must not block; they are the glue for completion chaining
// (e.g. "after the kernel CPU finishes, push into the socket inbox").
func (f *Future[T]) Then(fn func(T)) {
	if f.done {
		fn(f.val)
		return
	}
	f.callbacks = append(f.callbacks, fn)
}

// Wait blocks the process until the future completes and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.block("future")
	}
	return f.val
}

// Queue is an unbounded FIFO mailbox. Pushers never block; poppers block
// while the queue is empty. It is the simulation analogue of an RDMA
// completion queue paired with an event channel.
type Queue[T any] struct {
	e       *Engine
	items   []T
	waiters []*Proc
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{e: e}
}

// Push appends v and wakes the oldest waiter, if any.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.e.unblock(p)
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Pop blocks the process until an item is available, then removes and
// returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.block("queue")
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// WaitGroup counts outstanding work items; Wait blocks until the count
// reaches zero. Unlike sync.WaitGroup it is usable only inside a simulation.
type WaitGroup struct {
	e       *Engine
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a wait group bound to e.
func NewWaitGroup(e *Engine) *WaitGroup {
	return &WaitGroup{e: e}
}

// Add adds delta (which may be negative) to the counter. When the counter
// reaches zero, all waiters wake.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.e.unblock(p)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.waiters = append(w.waiters, p)
		p.block("waitgroup")
	}
}

// Resource is a counted FIFO resource (a semaphore with fair queueing):
// think QP send-queue slots or buffer credits.
type Resource struct {
	e        *Engine
	capacity int
	avail    int
	queue    []resWaiter
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity.
func NewResource(e *Engine, capacity int) *Resource {
	return &Resource{e: e, capacity: capacity, avail: capacity}
}

// Acquire blocks the process until n units are available, then takes them.
// Requests are granted strictly in FIFO order. n must not exceed capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n > r.capacity {
		panic("sim: Resource.Acquire exceeds capacity")
	}
	if len(r.queue) == 0 && r.avail >= n {
		r.avail -= n
		return
	}
	r.queue = append(r.queue, resWaiter{p: p, n: n})
	for {
		p.block("resource")
		// Woken by Release when at the head with enough units; verify.
		if len(r.queue) > 0 && r.queue[0].p == p && r.avail >= n {
			r.queue = r.queue[1:]
			r.avail -= n
			// Cascade: the new head may also fit in what remains.
			if len(r.queue) > 0 && r.avail >= r.queue[0].n {
				r.e.unblock(r.queue[0].p)
			}
			return
		}
	}
}

// Release returns n units and grants queued acquirers in order.
func (r *Resource) Release(n int) {
	r.avail += n
	if r.avail > r.capacity {
		panic("sim: Resource.Release over capacity")
	}
	if len(r.queue) > 0 && r.avail >= r.queue[0].n {
		r.e.unblock(r.queue[0].p)
	}
}

// rwMaxReaders bounds concurrent readers of an RWLock; any value far above
// realistic process counts works, since a writer simply acquires them all.
const rwMaxReaders = 1 << 20

// RWLock is a fair readers-writer lock for simulated processes, used as the
// Catfish server's tree latch. FIFO ordering of the underlying resource
// prevents writer starvation.
type RWLock struct {
	res *Resource
}

// NewRWLock returns an unlocked RWLock.
func NewRWLock(e *Engine) *RWLock {
	return &RWLock{res: NewResource(e, rwMaxReaders)}
}

// RLock acquires a shared lock.
func (l *RWLock) RLock(p *Proc) { l.res.Acquire(p, 1) }

// RUnlock releases a shared lock.
func (l *RWLock) RUnlock() { l.res.Release(1) }

// Lock acquires the exclusive lock.
func (l *RWLock) Lock(p *Proc) { l.res.Acquire(p, rwMaxReaders) }

// Unlock releases the exclusive lock.
func (l *RWLock) Unlock() { l.res.Release(rwMaxReaders) }
