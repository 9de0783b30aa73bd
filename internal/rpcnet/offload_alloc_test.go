//go:build !race

package rpcnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
)

// offloadSearchAllocCeiling is what the body of TestOffloadSearchAllocCeiling
// measured at the commit before the two offload traversals became one; the
// one traversal measures 0 (EXPERIMENTS.md has both). The count covers the
// whole process — the client's traversal and the in-process server answering
// its reads.
const offloadSearchAllocCeiling = 34

// TestOffloadSearchAllocCeiling: a forced-offload, multi-issue point search
// over a quiescent tree with a warm node cache and merge span 8 — the shape
// of the benchmark's point-offload workload — allocates no more than it did
// when every frontier level cost a goroutine per run and a payload buffer
// per chunk.
func TestOffloadSearchAllocCeiling(t *testing.T) {
	// A one-second lease with heartbeats paused: the cache stays lease-fresh
	// for the whole measurement.
	srv, _ := startServer(t, 20000, ServerConfig{HeartbeatInterval: time.Second})
	srv.PauseHeartbeats(true)
	c := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true, NodeCache: 128, MergeSpan: 8})
	rng := rand.New(rand.NewSource(21))
	windows := make([]geo.Rect, 64)
	for i := range windows {
		x, y := rng.Float64(), rng.Float64()
		windows[i] = geo.NewRect(x, y, x+1e-4, y+1e-4)
	}
	search := func(i int) {
		if _, _, err := c.Search(windows[i%len(windows)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range windows {
		search(i) // warm the cache and every pool
	}
	i := 0
	allocs := testing.AllocsPerRun(512, func() { search(i); i++ })
	t.Logf("%.2f allocs per search", allocs)
	if allocs > offloadSearchAllocCeiling {
		t.Errorf("%.2f allocs per offloaded point search, ceiling %d", allocs, offloadSearchAllocCeiling)
	}
}
