//go:build !race

// Race instrumentation allocates on its own; the zero-allocation assertion
// on the publish path only runs in non-race builds.
package region

import (
	"math/rand"
	"testing"
)

// TestWriteChunkPrefixZeroAlloc: publishing a node-sized prefix — the call
// every tree write ends in — allocates nothing, whether the lines it covers
// changed (seqlock), did not (version bump) or end in a partial tail line.
func TestWriteChunkPrefixZeroAlloc(t *testing.T) {
	r, err := New(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [2][]byte
	for i := range payloads {
		payloads[i] = make([]byte, 16+57*40) // a 57-entry node: 41 lines, the last partial
		rand.New(rand.NewSource(int64(i))).Read(payloads[i])
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if err := r.WriteChunkPrefix(0, payloads[i/2%2]); err != nil {
			t.Error(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("WriteChunkPrefix allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSlabReadWriteZeroAlloc: once a chunk's slab is committed, raw reads,
// version reads and every write path allocate nothing; neither do reads of
// a chunk whose slab is still uncommitted.
func TestSlabReadWriteZeroAlloc(t *testing.T) {
	r, err := New(1024, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, r.PayloadSize())
	rand.New(rand.NewSource(3)).Read(payload)
	if err := r.WriteChunk(0, payload); err != nil {
		t.Fatal(err)
	}
	raw, versions := make([]byte, r.ChunkSize()), make([]byte, r.VersionsSize())
	dst := make([]byte, 0, r.PayloadSize())
	last := r.NumChunks() - 1 // its slab is never committed
	for name, op := range map[string]func() error{
		"ReadChunkRaw":             func() error { return r.ReadChunkRaw(0, raw) },
		"ReadChunkRaw uncommitted": func() error { return r.ReadChunkRaw(last, raw) },
		"ReadVersions":             func() error { return r.ReadVersions(0, versions) },
		"ReadVersions uncommitted": func() error { return r.ReadVersions(last, versions) },
		"Version":                  func() error { _, err := r.Version(0); return err },
		"ReadChunk":                func() error { _, _, err := r.ReadChunk(0, raw, dst); return err },
		"WriteChunk":               func() error { payload[0]++; return r.WriteChunk(0, payload) },
		"WriteChunkPrefix":         func() error { payload[0]++; return r.WriteChunkPrefix(0, payload[:500]) },
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := op(); err != nil {
				t.Error(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestMailboxWriteResultZeroAlloc: delivering a result into a granted slot —
// the header and leading payload into the first chunk, the rest into the
// chunks after it — allocates nothing, whether the result fits the first
// chunk or spans the slot.
func TestMailboxWriteResultZeroAlloc(t *testing.T) {
	m := newTestMailbox(t, 2, 4, 1024)
	payload := make([]byte, m.Capacity())
	rand.New(rand.NewSource(5)).Read(payload)
	for _, n := range []int{0, 100, m.Capacity()} {
		if allocs := testing.AllocsPerRun(100, func() {
			slot, ok := m.Grant()
			if !ok {
				t.Fatal("no free slot")
			}
			ref, err := m.WriteResult(slot, payload[:n])
			if err != nil {
				t.Fatal(err)
			}
			m.Reclaim(slot, ref.Seq)
		}); allocs != 0 {
			t.Errorf("%d-byte result: WriteResult allocates %.1f objects/op, want 0", n, allocs)
		}
	}
}
