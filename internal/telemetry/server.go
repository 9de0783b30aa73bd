package telemetry

// ServerMetrics is the live counter set of the one server core
// (proto.Serve) both transports run, plus the heartbeat count their own
// heartbeat loops bump. One rule per counter, whichever transport carried
// the request: Searches and KNNs are per-kind totals — a SEARCH_FETCH is a
// search, a KNN_FETCH a kNN — and FetchSearches is the subset of both that
// asked for mailbox delivery.
type ServerMetrics struct {
	Searches  Counter
	Inserts   Counter
	Deletes   Counter
	Results   Counter // items the queries matched
	Heartbeat Counter // heartbeats published, one per connection reached
	Segments  Counter // response segments framed (CONT and END)
	Moves     Counter
	// MovesInPlace counts the MOVEs whose destination the source leaf still
	// covered, written into that leaf without a delete and reinsert.
	MovesInPlace Counter
	KNNs         Counter
	// Batches counts batch containers executed; BatchedOps the operations
	// they carried (each also counted under its own kind).
	Batches    Counter
	BatchedOps Counter
	// FetchInline counts the FetchSearches answered inline (small result,
	// no free slot, oversized, or fetch disabled); FetchBytes the payload
	// bytes delivered through mailbox slots.
	FetchSearches Counter
	FetchInline   Counter
	FetchBytes    Counter
	// Promotions counts accepted MsgPromote requests; ReplRecords the
	// replicated mutations applied as a backup.
	Promotions  Counter
	ReplRecords Counter
	// Util and TXUtil are the CPU and send-engine utilizations as each
	// server's heartbeat loop last published them (not part of a snapshot).
	Util, TXUtil Gauge
}

// ServerSnapshot is a ServerMetrics snapshot: the simulated server's whole
// Stats, and the transport-neutral part of rpcnet's ServerStats.
type ServerSnapshot struct {
	Searches  uint64
	Inserts   uint64
	Deletes   uint64
	Results   uint64
	Heartbeat uint64
	Segments  uint64
	Moves     uint64
	// Left out of a JSON document while zero, so the run documents of
	// deployments that never move in place read as they did before it existed.
	MovesInPlace  uint64 `json:",omitempty"`
	KNNs          uint64
	Batches       uint64
	BatchedOps    uint64
	FetchSearches uint64
	FetchInline   uint64
	FetchBytes    uint64
	Promotions    uint64
	ReplRecords   uint64
}

// Snapshot exports the counters; they are atomic, so it is safe while
// requests run.
func (m *ServerMetrics) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		Searches:      m.Searches.Load(),
		Inserts:       m.Inserts.Load(),
		Deletes:       m.Deletes.Load(),
		Results:       m.Results.Load(),
		Heartbeat:     m.Heartbeat.Load(),
		Segments:      m.Segments.Load(),
		Moves:         m.Moves.Load(),
		MovesInPlace:  m.MovesInPlace.Load(),
		KNNs:          m.KNNs.Load(),
		Batches:       m.Batches.Load(),
		BatchedOps:    m.BatchedOps.Load(),
		FetchSearches: m.FetchSearches.Load(),
		FetchInline:   m.FetchInline.Load(),
		FetchBytes:    m.FetchBytes.Load(),
		Promotions:    m.Promotions.Load(),
		ReplRecords:   m.ReplRecords.Load(),
	}
}

// Add accumulates other into s, field by field, and returns the sum, as
// ClientSnapshot.Add does: a deployment's roll-up sums its servers with it.
func (s ServerSnapshot) Add(other ServerSnapshot) ServerSnapshot {
	s.Searches += other.Searches
	s.Inserts += other.Inserts
	s.Deletes += other.Deletes
	s.Results += other.Results
	s.Heartbeat += other.Heartbeat
	s.Segments += other.Segments
	s.Moves += other.Moves
	s.MovesInPlace += other.MovesInPlace
	s.KNNs += other.KNNs
	s.Batches += other.Batches
	s.BatchedOps += other.BatchedOps
	s.FetchSearches += other.FetchSearches
	s.FetchInline += other.FetchInline
	s.FetchBytes += other.FetchBytes
	s.Promotions += other.Promotions
	s.ReplRecords += other.ReplRecords
	return s
}

// Register exposes every counter and the two utilization gauges on reg under
// the catfish_server_* names.
func (m *ServerMetrics) Register(reg *Registry) {
	reg.CounterFunc("catfish_server_fast_searches_total", m.Searches.Load)
	reg.CounterFunc("catfish_server_inserts_total", m.Inserts.Load)
	reg.CounterFunc("catfish_server_deletes_total", m.Deletes.Load)
	reg.CounterFunc("catfish_server_moves_total", m.Moves.Load)
	reg.CounterFunc("catfish_moves_in_place_total", m.MovesInPlace.Load)
	reg.CounterFunc("catfish_server_knn_total", m.KNNs.Load)
	reg.CounterFunc("catfish_server_results_total", m.Results.Load)
	reg.CounterFunc("catfish_server_heartbeats_total", m.Heartbeat.Load)
	reg.CounterFunc("catfish_server_segments_total", m.Segments.Load)
	reg.CounterFunc("catfish_server_batches_total", m.Batches.Load)
	reg.CounterFunc("catfish_server_batched_ops_total", m.BatchedOps.Load)
	reg.CounterFunc("catfish_server_fetch_searches_total", m.FetchSearches.Load)
	reg.CounterFunc("catfish_server_fetch_inline_total", m.FetchInline.Load)
	reg.CounterFunc("catfish_server_fetch_bytes_total", m.FetchBytes.Load)
	reg.CounterFunc("catfish_server_promotions_total", m.Promotions.Load)
	reg.CounterFunc("catfish_server_repl_records_total", m.ReplRecords.Load)
	reg.GaugeFunc("catfish_server_utilization", m.Util.Load)
	reg.GaugeFunc("catfish_server_tx_utilization", m.TXUtil.Load)
}
