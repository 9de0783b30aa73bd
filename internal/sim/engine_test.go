package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Errorf("woke at %v, want 10ms", at)
	}
	if e.Now() != 10*time.Millisecond {
		t.Errorf("engine now = %v", e.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := New(1)
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		ran = true
		if p.Now() != 0 {
			t.Errorf("now = %v after negative sleep", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("process did not run")
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		e := New(42)
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				p.Sleep(5 * time.Millisecond)
				order = append(order, name)
				p.Sleep(5 * time.Millisecond)
				order = append(order, name+"2")
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	second := run()
	if len(first) != 6 {
		t.Fatalf("got %d entries", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic ordering: %v vs %v", first, second)
		}
	}
	// Same-time events fire in scheduling order: a, b, c.
	if first[0] != "a" || first[1] != "b" || first[2] != "c" {
		t.Errorf("tie-break order wrong: %v", first)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var childAt time.Duration
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Spawn("child", func(c *Proc) {
			childAt = c.Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != time.Millisecond {
		t.Errorf("child started at %v, want 1ms", childAt)
	}
}

func TestFuture(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var got int
	var gotAt time.Duration
	e.Spawn("waiter", func(p *Proc) {
		got = f.Wait(p)
		gotAt = p.Now()
	})
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		f.Complete(7)
		f.Complete(99) // idempotent: first value wins
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("future value = %d, want 7", got)
	}
	if gotAt != 3*time.Millisecond {
		t.Errorf("woke at %v", gotAt)
	}
	if !f.Done() || f.Value() != 7 {
		t.Error("future state wrong after completion")
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	e := New(1)
	f := NewFuture[string](e)
	f.Complete("x")
	var got string
	e.Spawn("late", func(p *Proc) {
		got = f.Wait(p) // must not block
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Errorf("got %q", got)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			f.Wait(p)
			woke++
		})
	}
	e.Spawn("c", func(p *Proc) {
		p.Sleep(time.Millisecond)
		f.Complete(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Errorf("woke %d waiters, want 5", woke)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 4; i++ {
			p.Sleep(time.Millisecond)
			q.Push(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v, want [1 2 3 4]", got)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	e := New(1)
	q := NewQueue[string](e)
	e.Spawn("p", func(p *Proc) {
		if _, ok := q.TryPop(); ok {
			t.Error("TryPop on empty queue returned ok")
		}
		q.Push("a")
		q.Push("b")
		if q.Len() != 2 {
			t.Errorf("Len = %d", q.Len())
		}
		v, ok := q.TryPop()
		if !ok || v != "a" {
			t.Errorf("TryPop = %q, %v", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt time.Duration
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Millisecond {
		t.Errorf("waiter finished at %v, want 3ms", doneAt)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New(1)
	r := NewResource(e, 2)
	var order []string
	hold := func(name string, units int, holdFor time.Duration) {
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p, units)
			order = append(order, name+"+")
			p.Sleep(holdFor)
			r.Release(units)
			order = append(order, name+"-")
		})
	}
	hold("a", 2, 10*time.Millisecond)
	hold("b", 1, 5*time.Millisecond)
	hold("c", 1, 5*time.Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a+", "a-", "b+", "c+", "b-", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if r.Avail() != r.Capacity() {
		t.Errorf("avail = %d after all released", r.Avail())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	e.Spawn("stuck", func(p *Proc) {
		f.Wait(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestStopKillsProcesses(t *testing.T) {
	e := New(1)
	ticks := 0
	e.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(5500 * time.Microsecond)
		p.Engine().Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if !e.Stopped() {
		t.Error("engine should report stopped")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	if err := e.RunUntil(10500 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10500*time.Microsecond {
		t.Errorf("now = %v", e.Now())
	}
}

func TestAfterCallback(t *testing.T) {
	e := New(1)
	var firedAt time.Duration
	e.Spawn("p", func(p *Proc) {
		e.After(2*time.Millisecond, func() {
			firedAt = e.Now()
		})
		p.Sleep(5 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != 2*time.Millisecond {
		t.Errorf("callback fired at %v", firedAt)
	}
}

func TestRunEmptyEngine(t *testing.T) {
	e := New(1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		e := New(int64(round))
		q := NewQueue[int](e)
		for i := 0; i < 10; i++ {
			e.Spawn("blocked", func(p *Proc) {
				q.Pop(p) // never satisfied: killed at shutdown
			})
			e.Spawn("sleeper", func(p *Proc) {
				for {
					p.Sleep(time.Millisecond)
				}
			})
		}
		e.Spawn("stopper", func(p *Proc) {
			p.Sleep(5 * time.Millisecond)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Give exiting goroutines a moment to unwind.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// RunUntil executes events with timestamps <= horizon, then stops the
// simulation (killing remaining processes). A negative horizon means no
// limit.
func (e *Engine) RunUntil(horizon time.Duration) error {
	return e.run(horizon)
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the completed value; it is only meaningful when Done.
func (f *Future[T]) Value() T { return f.val }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// Avail returns the currently available units.
func (r *Resource) Avail() int { return r.avail }
