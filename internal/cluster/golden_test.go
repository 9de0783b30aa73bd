package cluster

import (
	"bytes"
	"encoding/json"
	"os"
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
