// Package nodecache is a bounded, version-validated LRU cache of decoded
// internal index nodes, consulted by the one offloaded walk (internal/proto)
// behind every remote reader of a Catfish region: the simulated R-tree
// client, the real-TCP rpcnet client, and the KV service's B+-tree client.
//
// DESIGN.md §5.3 pins the offloading path's throughput ceiling at
// NIC bandwidth / (nodesRead · chunkSize): on a height-4 tree every
// offloaded search burns four full-chunk RDMA Reads. Upper tree levels
// change rarely, so caching their decoded form converts most of those
// reads into local lookups. Validation is two-tier:
//
//  1. Lease tier — an entry validated within the last lease window (one
//     heartbeat interval) is served with zero network. This is the same
//     bounded-staleness contract the root cache provides: a reader may
//     act on an image at most one heartbeat old.
//  2. Version tier — past the lease, the entry must be revalidated by a
//     version-only read (the chunk's per-cacheline version words, 512 B
//     instead of 4 KB for the default geometry; see region.ReadVersions).
//     If the fingerprint still matches, the cached node is trusted and
//     the lease renewed; otherwise the entry is dropped and the caller
//     falls back to a full fetch.
//
// DemoteAll demotes every entry to the version tier immediately — callers
// invoke it when the heartbeat mailbox's root-version word changes, so a
// structural change observed at the root shortens the lease of everything
// below it. Flush drops the whole cache; callers invoke it on stale
// restarts (level mismatch / garbage decode), which conservatively covers
// "evict the affected entries and flush their ancestors".
//
// Only internal (non-leaf) nodes belong in the cache: leaves absorb every
// insert and would thrash, and the existing root cache sets the precedent.
// Callers enforce this at Put time.
//
// A nil *Cache is a valid always-miss cache: every method is a no-op and
// Lookup reports Miss, so wiring a capacity-0 configuration leaves the
// read path bit-for-bit identical to an uncached client.
package nodecache

import (
	"sync"
	"time"
)

// Outcome classifies a Lookup.
type Outcome int

// Lookup outcomes.
const (
	// Miss: not cached; the caller performs a full fetch (and may Put).
	Miss Outcome = iota
	// Fresh: cached and inside the lease window; serve with zero network.
	Fresh
	// Verify: cached but past the lease; the caller must revalidate the
	// version fingerprint (a version-only read) and call Confirm.
	Verify
)

// Stats counts cache events. BytesSaved credits a full chunk for every
// lease hit and chunk-minus-versions for every verified hit.
type Stats struct {
	Hits          uint64 // lease-tier hits (zero network)
	VerifiedHits  uint64 // version-tier hits (512 B read instead of 4 KB)
	Misses        uint64 // absent entries and failed revalidations
	Evictions     uint64 // entries displaced by capacity pressure
	Invalidations uint64 // entries dropped by Evict/Flush/failed Confirm
	BytesSaved    uint64 // network bytes avoided vs. always-full-fetch
	PrefetchHits  uint64 // speculative entries later served to a demand lookup
	PrefetchWaste uint64 // speculative entries dropped or overwritten unused
}

type entry struct {
	chunk      int
	node       any
	version    uint64
	validated  time.Duration // clock reading of the last validation
	epoch      uint64        // cache epoch at the last validation
	prefetched bool          // inserted speculatively; unset at first demand hit
	prev       *entry
	next       *entry
}

// Cache is the bounded LRU. It is safe for concurrent use (the rpcnet
// multi-issue traversal fetches from real goroutines).
type Cache struct {
	mu       sync.Mutex
	capacity int
	lease    time.Duration
	chunk    int // full-chunk read size, for BytesSaved accounting
	versions int // version-only read size
	entries  map[int]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	// epoch demotes in bulk: entries validated in an older epoch are
	// Verify regardless of lease age (see DemoteAll).
	epoch uint64
	stats Stats
}

// New returns a cache holding up to capacity decoded nodes, or nil (the
// always-miss cache) when capacity <= 0. lease is the zero-network
// freshness window, normally the heartbeat interval; a zero lease makes
// every hit take the version tier, which keeps the cache sound even when
// no heartbeats flow. chunkSize and versionsSize calibrate BytesSaved.
func New(capacity int, lease time.Duration, chunkSize, versionsSize int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		lease:    lease,
		chunk:    chunkSize,
		versions: versionsSize,
		entries:  make(map[int]*entry, capacity),
	}
}

// Lookup consults the cache for chunk at clock reading now. The node is
// returned only with Fresh; a Verify outcome means the caller should
// issue a version-only read and Confirm.
func (c *Cache) Lookup(chunk int, now time.Duration) (any, Outcome) {
	if c == nil {
		return nil, Miss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[chunk]
	if !ok {
		c.stats.Misses++
		return nil, Miss
	}
	if e.epoch == c.epoch && now-e.validated <= c.lease {
		c.moveFront(e)
		c.stats.Hits++
		c.stats.BytesSaved += uint64(c.chunk)
		c.creditPrefetch(e)
		return e.node, Fresh
	}
	// The demoted node rides along as a hint: its fingerprint has not been
	// reconfirmed, so the caller must not serve it — but its entries may
	// seed speculative reads that overlap the revalidation (DESIGN.md
	// §5.9). Only Confirm promotes it back to servable.
	return e.node, Verify
}

// creditPrefetch records the first demand hit on a speculative entry.
func (c *Cache) creditPrefetch(e *entry) {
	if e.prefetched {
		e.prefetched = false
		c.stats.PrefetchHits++
	}
}

// Confirm resolves a Verify outcome: if the freshly-read version
// fingerprint still matches the cached entry, the lease is renewed and
// the node returned; otherwise the entry is dropped (the structure
// changed) and the caller falls back to a full fetch.
func (c *Cache) Confirm(chunk int, version uint64, now time.Duration) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[chunk]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	if e.version != version {
		c.removeLocked(e)
		c.stats.Invalidations++
		c.stats.Misses++
		return nil, false
	}
	e.validated = now
	e.epoch = c.epoch
	c.moveFront(e)
	c.stats.VerifiedHits++
	if c.chunk > c.versions {
		c.stats.BytesSaved += uint64(c.chunk - c.versions)
	}
	c.creditPrefetch(e)
	return e.node, true
}

// Put inserts or refreshes the decoded node for chunk, stamped as
// validated at now. The least recently used entry is evicted on overflow.
// Callers must only Put internal (non-leaf) nodes, and must pass a node
// the cache may retain (not a reused decode buffer).
//
// Put returns the node it dropped — the one chunk held before, or the one
// evicted — or nil. The cache keeps no reference to it, so a caller that is
// the cache's only reader may reuse its storage once nothing it is still
// walking can point at it.
func (c *Cache) Put(chunk int, node any, version uint64, now time.Duration) (dropped any) {
	return c.put(chunk, node, version, now, false)
}

// PutPrefetched inserts a speculatively fetched node, marked so the stats
// can attribute its eventual hit or waste to prefetching. An existing
// entry is refreshed in place and keeps its current attribution. It returns
// what it dropped, as Put does.
func (c *Cache) PutPrefetched(chunk int, node any, version uint64, now time.Duration) (dropped any) {
	return c.put(chunk, node, version, now, true)
}

func (c *Cache) put(chunk int, node any, version uint64, now time.Duration, prefetched bool) (dropped any) {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[chunk]; ok {
		// A demand fetch replacing a still-unused speculative entry means
		// the prefetched bytes never saved a read.
		if e.prefetched && !prefetched {
			e.prefetched = false
			c.stats.PrefetchWaste++
		}
		if e.node != node {
			dropped = e.node
		}
		e.node = node
		e.version = version
		e.validated = now
		e.epoch = c.epoch
		c.moveFront(e)
		return dropped
	}
	var e *entry
	if len(c.entries) >= c.capacity {
		// The evicted entry struct carries the new node.
		e = c.tail
		c.stats.Evictions++
		c.removeLocked(e)
		dropped = e.node
	} else {
		e = new(entry)
	}
	*e = entry{chunk: chunk, node: node, version: version, validated: now,
		epoch: c.epoch, prefetched: prefetched}
	c.entries[chunk] = e
	c.pushFront(e)
	return dropped
}

// Peek reports whether chunk is cached, without touching LRU order or
// stats. The prefetcher uses it to avoid speculating on chunks already
// resident.
func (c *Cache) Peek(chunk int) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[chunk]
	return ok
}

// Evict drops a single entry (level mismatch on a cached node).
func (c *Cache) Evict(chunk int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[chunk]; ok {
		c.removeLocked(e)
		c.stats.Invalidations++
	}
}

// DemoteAll moves every entry to the version tier: nothing is served
// lease-fresh until revalidated. Callers invoke it when the heartbeat's
// root-version word changes.
func (c *Cache) DemoteAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
}

// Flush drops every entry. Callers invoke it on stale restarts, which
// conservatively evicts the affected entries along with all ancestors.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Invalidations += uint64(len(c.entries))
	for _, e := range c.entries {
		if e.prefetched {
			c.stats.PrefetchWaste++
		}
	}
	clear(c.entries)
	c.head, c.tail = nil, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// moveFront makes e the most recently used entry.
func (c *Cache) moveFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) removeLocked(e *entry) {
	if e.prefetched {
		c.stats.PrefetchWaste++
	}
	c.unlink(e)
	delete(c.entries, e.chunk)
}
