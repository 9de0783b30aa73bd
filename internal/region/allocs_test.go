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
