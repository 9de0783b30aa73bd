package nodecache

import (
	"sync"
	"testing"
	"time"
)

const (
	chunkSize    = 4096
	versionsSize = 512
	lease        = 10 * time.Millisecond
)

func newCache(capacity int) *Cache {
	return New(capacity, lease, chunkSize, versionsSize)
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if c2 := New(0, lease, chunkSize, versionsSize); c2 != nil {
		t.Fatal("capacity 0 should return the nil cache")
	}
	if n, out := c.Lookup(1, 0); n != nil || out != Miss {
		t.Fatalf("nil Lookup = (%v, %v)", n, out)
	}
	c.Put(1, "x", 2, 0)
	if _, ok := c.Confirm(1, 2, 0); ok {
		t.Fatal("nil Confirm succeeded")
	}
	c.Evict(1)
	c.DemoteAll()
	c.Flush()
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache accumulated state")
	}
}

func TestLeaseTiers(t *testing.T) {
	c := newCache(4)
	c.Put(7, "node7", 42, 0)

	// Inside the lease: Fresh, zero network.
	n, out := c.Lookup(7, lease)
	if out != Fresh || n != "node7" {
		t.Fatalf("in-lease Lookup = (%v, %v), want Fresh", n, out)
	}
	// Past the lease: Verify.
	if _, out := c.Lookup(7, lease+1); out != Verify {
		t.Fatalf("post-lease Lookup outcome = %v, want Verify", out)
	}
	// Matching fingerprint renews the lease.
	n, ok := c.Confirm(7, 42, lease+1)
	if !ok || n != "node7" {
		t.Fatalf("Confirm(match) = (%v, %v)", n, ok)
	}
	if _, out := c.Lookup(7, 2*lease+1); out != Fresh {
		t.Fatal("lease not renewed by Confirm")
	}
	// Changed fingerprint drops the entry.
	if _, ok := c.Confirm(7, 43, 3*lease); ok {
		t.Fatal("Confirm accepted a changed version")
	}
	if _, out := c.Lookup(7, 3*lease); out != Miss {
		t.Fatal("entry survived a failed Confirm")
	}
	st := c.Stats()
	if st.Hits != 2 || st.VerifiedHits != 1 || st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	wantSaved := uint64(2*chunkSize + chunkSize - versionsSize)
	if st.BytesSaved != wantSaved {
		t.Fatalf("BytesSaved = %d, want %d", st.BytesSaved, wantSaved)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(2)
	c.Put(1, "a", 1, 0)
	c.Put(2, "b", 1, 0)
	c.Lookup(1, 0) // 1 becomes MRU
	c.Put(3, "c", 1, 0)
	if _, out := c.Lookup(2, 0); out != Miss {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	for _, id := range []int{1, 3} {
		if _, out := c.Lookup(id, 0); out != Fresh {
			t.Fatalf("entry %d missing after eviction of 2", id)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestDemoteAllForcesVerify(t *testing.T) {
	c := newCache(4)
	now := time.Millisecond
	c.Put(1, "a", 9, now)
	c.DemoteAll()
	if _, out := c.Lookup(1, now); out != Verify {
		t.Fatal("DemoteAll did not demote a lease-fresh entry")
	}
	if n, ok := c.Confirm(1, 9, now+1); !ok || n != "a" {
		t.Fatal("Confirm after DemoteAll failed")
	}
	if _, out := c.Lookup(1, now+2); out != Fresh {
		t.Fatal("Confirm did not restore freshness after DemoteAll")
	}
}

func TestFlushAndEvict(t *testing.T) {
	c := newCache(4)
	c.Put(1, "a", 1, 0)
	c.Put(2, "b", 1, 0)
	c.Evict(1)
	if _, out := c.Lookup(1, 0); out != Miss {
		t.Fatal("Evict left the entry behind")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len after Flush = %d", c.Len())
	}
	if _, out := c.Lookup(2, 0); out != Miss {
		t.Fatal("Flush left an entry behind")
	}
	// 1 by Evict, 1 by Flush.
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
	}
}

func TestPutRefreshesInPlace(t *testing.T) {
	c := newCache(2)
	c.Put(1, "old", 1, 0)
	c.Put(2, "b", 1, 0)
	c.Put(1, "new", 5, time.Millisecond)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	n, out := c.Lookup(1, time.Millisecond)
	if out != Fresh || n != "new" {
		t.Fatalf("refreshed entry = (%v, %v)", n, out)
	}
	if _, ok := c.Confirm(2, 1, lease*2); !ok {
		t.Fatal("untouched entry lost by refresh")
	}
}

// Concurrent mixed operations; run with -race.
func TestConcurrentAccess(t *testing.T) {
	c := newCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := (g*31 + i) % 64
				now := time.Duration(i) * time.Microsecond
				switch _, out := c.Lookup(id, now); out {
				case Miss:
					c.Put(id, id, uint64(id), now)
				case Verify:
					c.Confirm(id, uint64(id), now)
				}
				if i%97 == 0 {
					c.DemoteAll()
				}
				if i%193 == 0 {
					c.Evict(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache overflowed capacity: %d", c.Len())
	}
}

// TestPutReturnsDropped: Put and PutPrefetched hand back the node they drop
// — the one the chunk held before, or the LRU entry they evict — and nil
// when they drop none; the counters move exactly as they did when nothing
// was handed back.
func TestPutReturnsDropped(t *testing.T) {
	c := newCache(2)
	steps := []struct {
		prefetched bool
		chunk      int
		node, want any
	}{
		{false, 1, "a", nil},
		{false, 2, "b", nil},
		{false, 1, "a2", "a"},  // replaced; 1 becomes MRU
		{false, 3, "c", "b"},   // evicts 2, the LRU
		{true, 4, "d", "a2"},   // evicts 1
		{true, 4, "d2", "d"},   // replaced, still speculative
		{false, 4, "d3", "d2"}, // a demand fill over an unused speculation: waste
		{false, 4, "d3", nil},  // the node it already holds
		{true, 5, "e", "c"},    // evicts 3
		{false, 6, "f", "d3"},  // evicts 4
		{false, 7, "g", "e"},   // evicts the unused speculation 5: waste
	}
	for i, s := range steps {
		put := c.Put
		if s.prefetched {
			put = c.PutPrefetched
		}
		if got := put(s.chunk, s.node, 1, 0); got != s.want {
			t.Fatalf("step %d: put %d %v dropped %v, want %v", i, s.chunk, s.node, got, s.want)
		}
	}
	want := Stats{Evictions: 5, PrefetchWaste: 2}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	for chunk, node := range map[int]any{6: "f", 7: "g"} {
		if n, out := c.Lookup(chunk, 0); out != Fresh || n != node {
			t.Fatalf("chunk %d = (%v, %v), want %v", chunk, n, out, node)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	var nilCache *Cache
	if got := nilCache.Put(1, "x", 1, 0); got != nil {
		t.Fatalf("nil cache dropped %v", got)
	}
}
