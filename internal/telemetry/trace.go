package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace is one per-search record of the adaptive decision path: which
// method Algorithm 1 chose, the back-off window state at decision time, the
// utilization prediction that drove it, and what the search then cost.
// Server-side request traces reuse the shape with the adaptive fields zero.
type Trace struct {
	// Seq is the global sequence number of the traced operation (assigned
	// by the Tracer; counts every offered record, sampled or not).
	Seq uint64 `json:"seq"`
	// Start is the operation start time — virtual time on the simulated
	// fabric, time since process start over real sockets (nanoseconds).
	Start time.Duration `json:"start_ns"`
	// Method is the executed path: "fast", "offload", "fetch", or "tcp".
	Method string `json:"method"`
	// Shard is the shard index the operation ran against (0 unsharded).
	Shard int `json:"shard"`
	// RBusy and ROff are Algorithm 1's state after the decision: the
	// consecutive-busy-heartbeat streak k and the remaining length n of the
	// randomized offload window drawn from [(k−1)·N, k·N).
	RBusy int `json:"r_busy"`
	ROff  int `json:"r_off"`
	// PredUtil is the predicted server CPU utilization the decision used
	// (the latest consumed heartbeat, or the EWMA when smoothing is on).
	PredUtil float64 `json:"pred_util"`
	// PredTX is the predicted server send-engine TX utilization the 3-way
	// decision used (0 against servers without the widened heartbeat).
	PredTX float64 `json:"pred_tx"`
	// OffloadReads is the number of chunk reads this search issued;
	// TornRetries the version-check retries among them.
	OffloadReads uint32 `json:"offload_reads"`
	TornRetries  uint32 `json:"torn_retries"`
	// Latency is the end-to-end duration of the operation.
	Latency time.Duration `json:"latency_ns"`
	// Err carries the error text for failed operations.
	Err string `json:"err,omitempty"`
}

// Tracer is a bounded-memory sampler of Traces: a fixed-capacity ring that
// overwrites the oldest record, with optional 1-in-every sampling so tracing
// a million-search run keeps both memory and CPU constant. Safe for
// concurrent use; a nil *Tracer is a valid no-op sink.
type Tracer struct {
	mu    sync.Mutex
	ring  []Trace
	next  int // ring write position
	size  int // records currently held (≤ cap)
	seq   uint64
	every uint64
}

// DefaultTraceCapacity bounds the trace ring when the caller passes 0.
const DefaultTraceCapacity = 1024

// NewTracer returns a tracer holding the last capacity records (rounded up
// to 1; DefaultTraceCapacity when 0), keeping 1 in every `every` offered
// records (every ≤ 1 keeps all).
func NewTracer(capacity, every int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if every < 1 {
		every = 1
	}
	return &Tracer{ring: make([]Trace, capacity), every: uint64(every)}
}

// Record offers one trace. The tracer assigns Seq; sampled-out records
// advance the sequence but are not retained. Never allocates.
func (t *Tracer) Record(tr Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	tr.Seq = t.seq
	if t.seq%t.every == 0 {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % len(t.ring)
		if t.size < len(t.ring) {
			t.size++
		}
	}
	t.mu.Unlock()
}

// Total returns the number of records offered so far (including sampled-out
// ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Len returns the number of records currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Dump returns the retained records, oldest first.
func (t *Tracer) Dump() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.size)
	start := t.next - t.size
	for i := 0; i < t.size; i++ {
		out = append(out, t.ring[(start+i+len(t.ring))%len(t.ring)])
	}
	return out
}

// WriteJSON streams the retained records as a JSON document:
// {"total": N, "retained": M, "traces": [...]} — the shape served by the
// admin endpoint's /traces.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Total    uint64  `json:"total"`
		Retained int     `json:"retained"`
		Traces   []Trace `json:"traces"`
	}{Total: t.Total(), Retained: t.Len(), Traces: t.Dump()}
	if doc.Traces == nil {
		doc.Traces = []Trace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
