package telemetry

// ClientMetrics is the live, atomically updated counter set shared by every
// Catfish client transport: the simulated ring-buffer client and the
// real-TCP rpcnet client mutate the same fields on the same hot-path
// events, so the two counter surfaces cannot drift apart again. A client
// embeds one ClientMetrics and calls Snapshot() to export it.
type ClientMetrics struct {
	FastSearches    Counter
	OffloadSearches Counter
	TCPSearches     Counter
	Inserts         Counter
	Deletes         Counter
	Moves           Counter // MOVE ops (single-latch delete+insert relocations)
	KNNSearches     Counter // k-nearest-neighbor queries (always server-side)
	TornRetries     Counter // version-check failures on one-sided reads
	StaleRestarts   Counter // traversals restarted after structural change
	NodesFetched    Counter // chunk reads issued for traversal
	HeartbeatsSeen  Counter
	RootCacheHits   Counter // traversals served from the cached root
	VersionReads    Counter // version-only revalidation reads issued
	BatchesSent     Counter // fast-messaging batch containers sent
	BatchedOps      Counter // operations carried in those containers
	PrefetchIssued  Counter // speculative chunk reads posted
	PrefetchHits    Counter // speculative reads a demand lookup later used
	PrefetchWaste   Counter // speculative reads discarded unused
	ReadWQEs        Counter // read messages posted (merged spans count once)

	// Remote-result-fetch counters (the RFP-style third access method).
	FetchSearches  Counter // searches routed to the fetch method
	FetchPulls     Counter // mailbox chunk reads issued for result pulls
	FetchBytes     Counter // result payload bytes delivered via mailbox pulls
	FetchRetries   Counter // pulls retried after a torn or stale slot read
	FetchInline    Counter // fetch searches the server answered inline
	FetchFallbacks Counter // fetch searches that gave up and re-ran as fast
}

// Snapshot exports the counters. Cache fields and HeartbeatsSeen come from
// subsystems that own their counts (node cache, adaptive switch); callers
// overlay them on the returned snapshot.
func (m *ClientMetrics) Snapshot() ClientSnapshot {
	return ClientSnapshot{
		FastSearches:    m.FastSearches.Load(),
		OffloadSearches: m.OffloadSearches.Load(),
		TCPSearches:     m.TCPSearches.Load(),
		Inserts:         m.Inserts.Load(),
		Deletes:         m.Deletes.Load(),
		Moves:           m.Moves.Load(),
		KNNSearches:     m.KNNSearches.Load(),
		TornRetries:     m.TornRetries.Load(),
		StaleRestarts:   m.StaleRestarts.Load(),
		NodesFetched:    m.NodesFetched.Load(),
		HeartbeatsSeen:  m.HeartbeatsSeen.Load(),
		RootCacheHits:   m.RootCacheHits.Load(),
		VersionReads:    m.VersionReads.Load(),
		BatchesSent:     m.BatchesSent.Load(),
		BatchedOps:      m.BatchedOps.Load(),
		PrefetchIssued:  m.PrefetchIssued.Load(),
		PrefetchHits:    m.PrefetchHits.Load(),
		PrefetchWaste:   m.PrefetchWaste.Load(),
		ReadWQEs:        m.ReadWQEs.Load(),
		FetchSearches:   m.FetchSearches.Load(),
		FetchPulls:      m.FetchPulls.Load(),
		FetchBytes:      m.FetchBytes.Load(),
		FetchRetries:    m.FetchRetries.Load(),
		FetchInline:     m.FetchInline.Load(),
		FetchFallbacks:  m.FetchFallbacks.Load(),
	}
}

// MergeRatio returns reads-per-WQE: how many logical chunk or version
// reads each posted read message carried on average. 1.0 means no merging;
// higher means adjacent reads coalesced. Zero when no WQEs were posted.
func (m *ClientMetrics) MergeRatio() float64 {
	wqes := m.ReadWQEs.Load()
	if wqes == 0 {
		return 0
	}
	reads := m.NodesFetched.Load() + m.VersionReads.Load() + m.PrefetchIssued.Load()
	return float64(reads) / float64(wqes)
}

// Register exposes every counter on reg under the catfish_client_* names
// (labels come from the registry scope; routers pass shard-labelled views).
func (m *ClientMetrics) Register(reg *Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("catfish_client_fast_searches_total", m.FastSearches.Load)
	reg.CounterFunc("catfish_client_offload_searches_total", m.OffloadSearches.Load)
	reg.CounterFunc("catfish_client_tcp_searches_total", m.TCPSearches.Load)
	reg.CounterFunc("catfish_client_inserts_total", m.Inserts.Load)
	reg.CounterFunc("catfish_client_deletes_total", m.Deletes.Load)
	reg.CounterFunc("catfish_client_moves_total", m.Moves.Load)
	reg.CounterFunc("catfish_client_knn_total", m.KNNSearches.Load)
	reg.CounterFunc("catfish_client_torn_retries_total", m.TornRetries.Load)
	reg.CounterFunc("catfish_client_stale_restarts_total", m.StaleRestarts.Load)
	reg.CounterFunc("catfish_client_nodes_fetched_total", m.NodesFetched.Load)
	reg.CounterFunc("catfish_client_heartbeats_seen_total", m.HeartbeatsSeen.Load)
	reg.CounterFunc("catfish_client_root_cache_hits_total", m.RootCacheHits.Load)
	reg.CounterFunc("catfish_client_version_reads_total", m.VersionReads.Load)
	reg.CounterFunc("catfish_client_batches_sent_total", m.BatchesSent.Load)
	reg.CounterFunc("catfish_client_batched_ops_total", m.BatchedOps.Load)
	reg.CounterFunc("catfish_prefetch_issued_total", m.PrefetchIssued.Load)
	reg.CounterFunc("catfish_prefetch_hits_total", m.PrefetchHits.Load)
	reg.CounterFunc("catfish_prefetch_waste_total", m.PrefetchWaste.Load)
	reg.CounterFunc("catfish_client_read_wqes_total", m.ReadWQEs.Load)
	reg.GaugeFunc("catfish_client_merge_ratio", m.MergeRatio)
	reg.CounterFunc("catfish_client_fetch_searches_total", m.FetchSearches.Load)
	reg.CounterFunc("catfish_client_fetch_pulls_total", m.FetchPulls.Load)
	reg.CounterFunc("catfish_client_fetch_bytes_total", m.FetchBytes.Load)
	reg.CounterFunc("catfish_client_fetch_retries_total", m.FetchRetries.Load)
	reg.CounterFunc("catfish_client_fetch_inline_total", m.FetchInline.Load)
	reg.CounterFunc("catfish_client_fetch_fallbacks_total", m.FetchFallbacks.Load)
	// Per-method totals under one name, method-labelled, so dashboards and
	// the fetch ablation can attribute traffic across the access methods.
	reg.CounterFunc("catfish_method_total", m.FastSearches.Load, "method", "fast")
	reg.CounterFunc("catfish_method_total", m.OffloadSearches.Load, "method", "offload")
	reg.CounterFunc("catfish_method_total", m.TCPSearches.Load, "method", "tcp")
	reg.CounterFunc("catfish_method_total", m.FetchSearches.Load, "method", "fetch")
}

// CacheStats is the node-cache counter subset sampled by RegisterCacheFuncs
// (mirrors nodecache.Stats without importing it).
type CacheStats struct {
	Hits, VerifiedHits, Misses, Evictions, BytesSaved uint64
	PrefetchHits, PrefetchWaste                       uint64
}

// RegisterCacheFuncs exposes the node-cache counters on reg, sampling f at
// scrape time — both transports share it so the cache series can't drift.
func RegisterCacheFuncs(reg *Registry, f func() CacheStats) {
	if reg == nil {
		return
	}
	reg.CounterFunc("catfish_client_cache_hits_total", func() uint64 { return f().Hits })
	reg.CounterFunc("catfish_client_cache_verified_hits_total", func() uint64 { return f().VerifiedHits })
	reg.CounterFunc("catfish_client_cache_misses_total", func() uint64 { return f().Misses })
	reg.CounterFunc("catfish_client_cache_evictions_total", func() uint64 { return f().Evictions })
	reg.CounterFunc("catfish_client_cache_bytes_saved_total", func() uint64 { return f().BytesSaved })
	reg.CounterFunc("catfish_client_cache_prefetch_hits_total", func() uint64 { return f().PrefetchHits })
	reg.CounterFunc("catfish_client_cache_prefetch_waste_total", func() uint64 { return f().PrefetchWaste })
}

// ClientSnapshot is the unified client counter snapshot shared by both
// transports. NodesFetched counts traversal chunk reads — RDMA Reads on
// the simulated fabric, the chunks of chunk-space READs over TCP (formerly rpcnet's
// "ChunksFetched"; the two were always the same quantity).
type ClientSnapshot struct {
	FastSearches    uint64
	OffloadSearches uint64
	TCPSearches     uint64
	Inserts         uint64
	Deletes         uint64
	Moves           uint64 // MOVE ops (single-latch delete+insert relocations)
	KNNSearches     uint64 // k-nearest-neighbor queries (always server-side)
	TornRetries     uint64 // version-check failures on one-sided reads
	StaleRestarts   uint64 // traversals restarted after structural change
	NodesFetched    uint64 // chunk reads issued for traversal
	HeartbeatsSeen  uint64
	RootCacheHits   uint64 // traversals served from the cached root

	// Node-cache counters (see internal/nodecache).
	VersionReads      uint64 // version-only revalidation reads issued
	CacheHits         uint64 // nodes served lease-fresh, zero network
	CacheVerifiedHits uint64 // nodes served after fingerprint revalidation
	CacheMisses       uint64
	CacheEvictions    uint64 // entries displaced by capacity pressure
	CacheBytesSaved   uint64 // network bytes avoided vs. always-full-fetch

	// Batching counters (see the transports' ExecBatch).
	BatchesSent uint64 // fast-messaging batch containers sent
	BatchedOps  uint64 // operations carried in those containers

	// Prefetch and read-merging counters (see DESIGN.md §5.9).
	PrefetchIssued     uint64 // speculative chunk reads posted
	PrefetchHits       uint64 // speculative reads a demand lookup later used
	PrefetchWaste      uint64 // speculative reads discarded unused
	ReadWQEs           uint64 // read messages posted (merged spans count once)
	CachePrefetchHits  uint64 // prefetched cache entries later demanded
	CachePrefetchWaste uint64 // prefetched cache entries dropped unused

	// Remote-result-fetch counters (see DESIGN.md §5.10).
	FetchSearches  uint64 // searches routed to the fetch method
	FetchPulls     uint64 // mailbox chunk reads issued for result pulls
	FetchBytes     uint64 // result payload bytes delivered via mailbox pulls
	FetchRetries   uint64 // pulls retried after a torn or stale slot read
	FetchInline    uint64 // fetch searches the server answered inline
	FetchFallbacks uint64 // fetch searches that gave up and re-ran as fast
}

// Add accumulates other into s, field by field, and returns the sum —
// routers and experiment drivers aggregate per-shard and per-client
// snapshots with it instead of hand-copied loops.
func (s ClientSnapshot) Add(other ClientSnapshot) ClientSnapshot {
	s.FastSearches += other.FastSearches
	s.OffloadSearches += other.OffloadSearches
	s.TCPSearches += other.TCPSearches
	s.Inserts += other.Inserts
	s.Deletes += other.Deletes
	s.Moves += other.Moves
	s.KNNSearches += other.KNNSearches
	s.TornRetries += other.TornRetries
	s.StaleRestarts += other.StaleRestarts
	s.NodesFetched += other.NodesFetched
	s.HeartbeatsSeen += other.HeartbeatsSeen
	s.RootCacheHits += other.RootCacheHits
	s.VersionReads += other.VersionReads
	s.CacheHits += other.CacheHits
	s.CacheVerifiedHits += other.CacheVerifiedHits
	s.CacheMisses += other.CacheMisses
	s.CacheEvictions += other.CacheEvictions
	s.CacheBytesSaved += other.CacheBytesSaved
	s.BatchesSent += other.BatchesSent
	s.BatchedOps += other.BatchedOps
	s.PrefetchIssued += other.PrefetchIssued
	s.PrefetchHits += other.PrefetchHits
	s.PrefetchWaste += other.PrefetchWaste
	s.ReadWQEs += other.ReadWQEs
	s.CachePrefetchHits += other.CachePrefetchHits
	s.CachePrefetchWaste += other.CachePrefetchWaste
	s.FetchSearches += other.FetchSearches
	s.FetchPulls += other.FetchPulls
	s.FetchBytes += other.FetchBytes
	s.FetchRetries += other.FetchRetries
	s.FetchInline += other.FetchInline
	s.FetchFallbacks += other.FetchFallbacks
	return s
}

// Searches returns the total searches across all four paths.
func (s ClientSnapshot) Searches() uint64 {
	return s.FastSearches + s.OffloadSearches + s.TCPSearches + s.FetchSearches
}

// FetchFraction returns the fraction of searches delivered by remote fetch
// (0 when no searches ran).
func (s ClientSnapshot) FetchFraction() float64 {
	if t := s.Searches(); t > 0 {
		return float64(s.FetchSearches) / float64(t)
	}
	return 0
}

// OffloadFraction returns the fraction of searches that ran as client-side
// traversals (0 when no searches ran).
func (s ClientSnapshot) OffloadFraction() float64 {
	if t := s.Searches(); t > 0 {
		return float64(s.OffloadSearches) / float64(t)
	}
	return 0
}
