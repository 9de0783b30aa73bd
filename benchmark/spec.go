package main

import "encoding/json"

// metricSpec names one reported number. BENCHMARK.json repeats these lists
// (TestSpecMatchesBenchmarkJSON keeps the two in step) so later changes can
// name a claim as "end-to-end metric × workload".
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the window the driver measures, BENCHMARK.json's
// run_seconds: long enough for ten slices, short enough that the driver's
// 4 + 22 × 4 runs (≈20 s each with set-ups, warm-up, write pass and
// correctness pass) stay far inside its 3420 s cap.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the specs above:
//
//	bash benchmark/run.sh --print-spec > BENCHMARK.json
func benchmarkJSON() ([]byte, error) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	render := func(specs []metricSpec, bounded bool) []metric {
		out := make([]metric, len(specs))
		for i, s := range specs {
			out[i] = metric{Name: s.Name, Unit: s.Unit, Better: s.Better}
			if bounded {
				out[i].Bound = &specs[i].Bound
			}
		}
		return out
	}
	return json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"`
	}{
		[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds,
		workloadSpecs, render(endToEndSpecs, true), render(perLayerSpecs, false),
	}, "", "  ")
}

// The four workloads. Each one is there because it moves time into a
// different layer; README.md has the long form.
var workloadSpecs = []workloadSpec{
	{"point-fast", "tiny fast-messaging searches: per-request fixed cost (wire framing, mux, dispatcher, syscalls) dominates, result streaming does not"},
	{"scan-fast", "500-result fast-messaging searches: rtree leaf scanning, result materialisation and wire item encode/decode dominate"},
	{"point-offload", "client-side traversal with node cache and merged spans beside a paced writer: region reads, version checks and nodecache dominate, the server never searches"},
	{"moving-fleet", "MOVE + kNN stream beside concurrent nearby searches: exclusive vs shared tree latch, rtree delete+reinsert and region writes"},
}

// End-to-end metrics, measured with tracing off and no registry attached.
// Every workload reports every one of them (see README.md, "What each
// metric means on each workload").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"search_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"knn_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"tx_bytes_per_op", "B", "lower", 0.05},
	{"heap_mb", "MB", "lower", 0.05},
}

// Per-layer metrics, reported by the traced run. Layer names are package
// names. A 0 means the workload never exercised that mechanism (for
// example chunk reads on a fast-messaging workload).
var perLayerSpecs = []metricSpec{
	// wire
	{"wire.req_encode_decode_ns", "ns", "lower", 0},
	{"wire.resp4_encode_decode_ns", "ns", "lower", 0},
	{"wire.allocs_per_msg", "count", "lower", 0},
	{"wire.resp500_encode_ns", "ns", "lower", 0},
	{"wire.resp500_decode_ns", "ns", "lower", 0},
	{"wire.batch16_encode_decode_ns", "ns", "lower", 0},
	// rtree
	{"rtree.search_point_ns", "ns", "lower", 0},
	{"rtree.nodes_per_search_point", "count", "lower", 0},
	{"rtree.search_scan_ns", "ns", "lower", 0},
	{"rtree.nodes_per_search_scan", "count", "lower", 0},
	{"rtree.results_per_node_read_scan", "count", "higher", 0},
	{"rtree.insert_ns", "ns", "lower", 0},
	{"rtree.delete_ns", "ns", "lower", 0},
	{"rtree.nodes_written_per_move", "count", "lower", 0},
	{"rtree.knn10_ns", "ns", "lower", 0},
	{"rtree.bulkload_1m_s", "s", "lower", 0},
	{"rtree.node_decode_ns", "ns", "lower", 0},
	// region
	{"region.read_chunk_ns", "ns", "lower", 0},
	{"region.read_versions_ns", "ns", "lower", 0},
	{"region.decode_chunk_ns", "ns", "lower", 0},
	{"region.write_chunk_ns", "ns", "lower", 0},
	{"region.mailbox_cycle_20k_ns", "ns", "lower", 0},
	// nodecache
	{"nodecache.lookup_hit_ns", "ns", "lower", 0},
	{"nodecache.put_evict_ns", "ns", "lower", 0},
	{"nodecache.hit_ratio", "ratio", "higher", 0},
	{"nodecache.verified_hit_ratio", "ratio", "higher", 0},
	{"nodecache.capacity_per_internal_node", "ratio", "higher", 0},
	// rpcnet: standalone passes
	{"rpcnet.null_rtt_p50_us", "us", "lower", 0},
	{"rpcnet.connect_us", "us", "lower", 0},
	{"rpcnet.batch16_us_per_op", "us", "lower", 0},
	{"rpcnet.fetch_scan_p50_us", "us", "lower", 0},
	{"rpcnet.fetch_pulls_per_search", "count", "lower", 0},
	{"rpcnet.fetch_tx_bytes_per_op", "B", "lower", 0},
	// rpcnet: the workload's own traced window
	{"rpcnet.server_search_p50_us", "us", "lower", 0},
	{"rpcnet.server_search_p99_us", "us", "lower", 0},
	{"rpcnet.client_minus_server_p50_us", "us", "lower", 0},
	{"rpcnet.server_move_p50_us", "us", "lower", 0},
	{"rpcnet.server_knn_p50_us", "us", "lower", 0},
	{"rpcnet.search_p99_us", "us", "lower", 0},
	{"rpcnet.search_p999_us", "us", "lower", 0},
	{"rpcnet.write_p99_us", "us", "lower", 0},
	{"rpcnet.chunk_reads_per_search", "count", "lower", 0},
	{"rpcnet.wqes_per_search", "count", "lower", 0},
	{"rpcnet.version_reads_per_search", "count", "lower", 0},
	{"rpcnet.torn_retries_per_kop", "count", "lower", 0},
	{"rpcnet.stale_restarts_per_kop", "count", "lower", 0},
	{"rpcnet.root_cache_hit_ratio", "ratio", "higher", 0},
	// adaptive, sim, ringbuf, cluster, shard
	{"adaptive.decide_ns", "ns", "lower", 0},
	{"sim.handoff_ns", "ns", "lower", 0},
	{"sim.cpu_run_ns", "ns", "lower", 0},
	{"ringbuf.send_recv_ns", "ns", "lower", 0},
	{"cluster.fastmsg_req_per_wall_s", "1/s", "higher", 0},
	{"cluster.offload_req_per_wall_s", "1/s", "higher", 0},
	{"cluster.catfish_req_per_wall_s", "1/s", "higher", 0},
	{"shard.build_k4_ms", "ms", "lower", 0},
	{"shard.route_ns", "ns", "lower", 0},
	// the cost of the spans and the registry themselves
	{"trace.overhead_ratio", "ratio", "higher", 0},
}
