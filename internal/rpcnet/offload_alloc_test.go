//go:build !race

package rpcnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
)

// TestOffloadSearchAllocCeiling: a forced-offload, multi-issue point search
// with a node cache and merge span 8 — the shape of the benchmark's
// point-offload workload — allocates exactly its result: one slice when the
// window matches, nothing when it does not. The tree's ≈200 internal nodes
// overflow the 128-node cache, so searches miss, fill and evict while they
// are counted, and a fill must reuse what an earlier one evicted. The count
// covers the whole process — the client's traversal and the in-process
// server answering its reads.
func TestOffloadSearchAllocCeiling(t *testing.T) {
	// A one-second lease with heartbeats paused: nothing but capacity drops
	// cache entries during the measurement.
	srv, _ := startServer(t, 48000, ServerConfig{HeartbeatInterval: time.Second})
	srv.PauseHeartbeats(true)
	c := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true, NodeCache: 128, MergeSpan: 8})
	rng := rand.New(rand.NewSource(21))
	var matched, empty []geo.Rect
	for len(matched) < 512 || len(empty) < 512 {
		x, y := rng.Float64(), rng.Float64()
		w := geo.NewRect(x, y, x+1e-4, y+1e-4)
		items, _, err := c.Search(w) // also warms the cache and every pool
		if err != nil {
			t.Fatal(err)
		}
		if len(items) > 0 {
			matched = append(matched, w)
		} else {
			empty = append(empty, w)
		}
	}
	for name, set := range map[string]struct {
		windows []geo.Rect
		want    float64
	}{"matching": {matched[:512], 1}, "empty": {empty[:512], 0}} {
		before := c.Stats().CacheEvictions
		i := 0
		allocs := testing.AllocsPerRun(512, func() {
			if _, _, err := c.Search(set.windows[i%len(set.windows)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		evicted := c.Stats().CacheEvictions - before
		t.Logf("%s windows: %.2f allocs per search, %d cache evictions", name, allocs, evicted)
		if allocs != set.want {
			t.Errorf("%s windows: %.2f allocs per offloaded point search, want %.0f (its result)", name, allocs, set.want)
		}
		if evicted == 0 {
			t.Errorf("%s windows: the cache never evicted; the tree no longer overflows it", name)
		}
	}
}
