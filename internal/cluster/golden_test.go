package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/workload"
)

// TestShardedGolden pins the sharded simulation to the numbers recorded
// in testdata/sharded-golden.json, captured before the sim and TCP routers
// were folded into one core (internal/shard). The simulation is
// deterministic, so every field of cluster.Result — ops, throughput, the
// latency summaries, offload fraction, the router counters, per-shard
// splits — must match bit for bit: floats are written in Go's shortest
// round-trip form, so equal text means equal bits. A deliberate behaviour
// change regenerates the file from the "got" document this test prints.
func TestShardedGolden(t *testing.T) {
	plain := hybridConfig(SchemeCatfish, 4)
	plain.Shards = 4

	batched := hybridConfig(SchemeFastEvent, 4)
	batched.Shards = 4
	batched.BatchSize = 16

	kill := hybridConfig(SchemeCatfish, 4)
	kill.Shards = 2
	kill.Replicas = 2
	kill.FailAfter = 50 * time.Microsecond
	kill.FailShard = 0
	kill.VerifyQueries = 40

	// The three above use point-sized queries (fan-out 1). The wide pair
	// sends every search to several shards, so the fork-and-join scatter
	// and the batched partition-merge are pinned too.
	wide := hybridConfig(SchemeCatfish, 4)
	wide.Shards = 4
	wide.Workload = workload.NewMix(workload.UniformScale{Scale: 0.2},
		workload.SkewedInserts{Edge: 0.0001}, 0.1, 1<<32)
	wideBatched := wide
	wideBatched.Scheme = SchemeFastEvent
	wideBatched.BatchSize = 16

	got := map[string]Result{}
	for name, cfg := range map[string]Config{
		"k4-plain":        plain,
		"k4-batched-b16":  batched,
		"r2-kill-primary": kill,
		"k4-wide":         wide,
		"k4-wide-b16":     wideBatched,
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = res
	}
	doc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	want, err := os.ReadFile("testdata/sharded-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("sharded results diverge from testdata/sharded-golden.json; got:\n%s", doc)
	}
}

// TestSingleGolden pins the single-server simulation — every exported
// scheme on the small hybrid mix, unbatched and at B=16, plus one run with
// the whole offload read path switched on (node cache, merged spans,
// prefetch, root cache) and one with staged node writes over several client
// hosts — to testdata/single-golden.json, captured before the single-server
// and sharded run paths were folded into one deployment. One compact JSON
// line per run; as in TestShardedGolden, equal text means equal bits.
func TestSingleGolden(t *testing.T) {
	runs := map[string]Config{}
	for _, scheme := range []Scheme{
		SchemeTCP1G, SchemeTCP40G, SchemeFastMessaging, SchemeOffloading, SchemeCatfish,
		SchemeFastEvent, SchemeOffloadMulti, SchemeFetch, SchemeCatfish3,
	} {
		runs[scheme.Name] = hybridConfig(scheme, 4)
		batched := hybridConfig(scheme, 4)
		batched.BatchSize = 16
		runs[scheme.Name+"-b16"] = batched
	}
	// Wide scans over 1 KB chunks: the regime where adjacent leaves merge
	// and speculation fires (see bench.AblationPrefetch).
	reads := hybridConfig(SchemeOffloadMulti, 4)
	reads.Workload = workload.NewMix(workload.UniformScale{Scale: 0.05},
		workload.SkewedInserts{Edge: 0.0001}, 0.1, 1<<32)
	reads.ChunkSize = 1024
	reads.MaxEntries = 22
	reads.NodeCache = 1024
	// A short interval so leases lapse and the prefetch bucket refills
	// within the run.
	reads.HeartbeatInv = 200 * time.Microsecond
	reads.MergeSpan = 4
	reads.Prefetch = 64
	reads.CacheRoot = true
	runs["offload-multi-readpath"] = reads
	staged := hybridConfig(SchemeOffloadMulti, 6)
	staged.StagedWrites = true
	staged.ClientsPerHost = 2
	runs["offload-multi-staged"] = staged

	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	var doc bytes.Buffer
	doc.WriteString("{\n")
	for i, name := range names {
		res, err := Run(runs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "  %q: %s", name, line)
		if i < len(names)-1 {
			doc.WriteByte(',')
		}
		doc.WriteByte('\n')
	}
	doc.WriteString("}\n")
	want, err := os.ReadFile("testdata/single-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Bytes(), want) {
		t.Errorf("single-server results diverge from testdata/single-golden.json; got:\n%s", doc.Bytes())
	}
}
