package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerBounded drives a million searches' worth of records through a
// small ring and asserts memory stays bounded: retention never exceeds
// capacity while the total keeps counting.
func TestTracerBounded(t *testing.T) {
	const n = 1_000_000
	tr := NewTracer(512, 1)
	for i := 0; i < n; i++ {
		tr.Record(Trace{Method: "fast", Latency: time.Duration(i)})
	}
	if got := tr.Total(); got != n {
		t.Errorf("Total = %d, want %d", got, n)
	}
	if tr.Cap() != 512 {
		t.Errorf("Cap = %d, want 512", tr.Cap())
	}
	if got := tr.Len(); got != 512 {
		t.Errorf("Len = %d, want 512 (bounded retention)", got)
	}
	dump := tr.Dump()
	if len(dump) != 512 {
		t.Fatalf("Dump len = %d, want 512", len(dump))
	}
	// Oldest-first, contiguous, ending at the last assigned sequence.
	for i, rec := range dump {
		want := uint64(n - 512 + 1 + i)
		if rec.Seq != want {
			t.Fatalf("dump[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
}

// TestTracerSampling: with 1-in-10 sampling only every tenth offered record
// is retained, but the total still counts all of them.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(1000, 10)
	for i := 0; i < 95; i++ {
		tr.Record(Trace{})
	}
	if got := tr.Total(); got != 95 {
		t.Errorf("Total = %d, want 95", got)
	}
	if got := tr.Len(); got != 9 {
		t.Errorf("Len = %d, want 9", got)
	}
	for _, rec := range tr.Dump() {
		if rec.Seq%10 != 0 {
			t.Errorf("retained seq %d not a sampling multiple", rec.Seq)
		}
	}
}

// TestTracerPartialRing: fewer records than capacity dump in insertion order.
func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8, 1)
	tr.Record(Trace{Method: "fast"})
	tr.Record(Trace{Method: "offload"})
	dump := tr.Dump()
	if len(dump) != 2 || dump[0].Seq != 1 || dump[1].Seq != 2 {
		t.Fatalf("dump = %+v", dump)
	}
	if dump[0].Method != "fast" || dump[1].Method != "offload" {
		t.Errorf("order wrong: %+v", dump)
	}
}

// TestTracerConcurrent records from many goroutines; meaningful under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Record(Trace{Method: "fast"})
				if i%50 == 0 {
					tr.Dump()
					tr.Len()
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Total(); got != 8*2000 {
		t.Errorf("Total = %d, want %d", got, 8*2000)
	}
	if tr.Len() > tr.Cap() {
		t.Errorf("Len %d exceeds Cap %d", tr.Len(), tr.Cap())
	}
}

// TestTracerWriteJSON pins the /traces document shape.
func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(4, 1)
	tr.Record(Trace{Method: "offload", RBusy: 2, ROff: 5, PredUtil: 0.9,
		OffloadReads: 3, Latency: 1500, Shard: 1})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Traces   []struct {
			Seq      uint64  `json:"seq"`
			Method   string  `json:"method"`
			Shard    int     `json:"shard"`
			RBusy    int     `json:"r_busy"`
			ROff     int     `json:"r_off"`
			PredUtil float64 `json:"pred_util"`
			Reads    uint32  `json:"offload_reads"`
			Latency  int64   `json:"latency_ns"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b.String())
	}
	if doc.Total != 1 || doc.Retained != 1 || len(doc.Traces) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	rec := doc.Traces[0]
	if rec.Method != "offload" || rec.RBusy != 2 || rec.ROff != 5 ||
		rec.PredUtil != 0.9 || rec.Reads != 3 || rec.Latency != 1500 || rec.Shard != 1 {
		t.Errorf("trace = %+v", rec)
	}

	// Empty tracer still emits a well-formed document with an empty array.
	var eb strings.Builder
	if err := NewTracer(4, 1).WriteJSON(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.String(), `"traces": []`) {
		t.Errorf("empty dump not an array:\n%s", eb.String())
	}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}
