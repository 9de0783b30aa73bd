package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Parent 0 is the
// root; the spans of one phase share its span as parent.
type span struct {
	ID, Parent uint32
	Name       string
	Op         string
	Start, End int64 // ns since the tracer was created
}

// tracer hands out span ids. Client goroutines append their spans to
// their own slices, so recording takes no lock; everything stays in memory
// until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32
	parent atomic.Uint32 // the open phase span every op span hangs under
	phases []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

var spanNames = [nClass]string{"conn.search", "conn.write", "conn.knn", "conn.other"}

func (t *tracer) span(class uint8, t0, t1 time.Time) span {
	return span{
		ID: t.nextID.Add(1), Parent: t.parent.Load(),
		Name: spanNames[class], Op: classNames[class],
		Start: int64(t0.Sub(t.epoch)), End: int64(t1.Sub(t.epoch)),
	}
}

// phase runs fn under a new parent span (a window, a write pass, a probe
// batch) and records it. On a nil tracer — an untraced run — it only runs fn.
func (t *tracer) phase(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.nextID.Add(1)
	prev := t.parent.Swap(id)
	t0 := time.Now()
	fn()
	t.phases = append(t.phases, span{ID: id, Parent: prev, Name: name, Op: "phase",
		Start: int64(t0.Sub(t.epoch)), End: int64(time.Since(t.epoch))})
	t.parent.Store(prev)
}

// writeSpans writes every span of a traced run as one JSON array.
func writeSpans(path string, groups ...[]span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	sep := "[\n"
	for _, g := range groups {
		for _, s := range g {
			fmt.Fprintf(w, `%s{"id":%d,"parent":%d,"name":%q,"op":%q,"start_ns":%d,"end_ns":%d}`,
				sep, s.ID, s.Parent, s.Name, s.Op, s.Start, s.End)
			sep = ",\n"
		}
	}
	if sep == "[\n" {
		w.WriteString("[")
	}
	w.WriteString("\n]\n")
	return w.Flush()
}
