package cluster

import (
	"reflect"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/rtree"
)

func TestShardedK1Delegation(t *testing.T) {
	// Shards <= 1 must run the existing single-server path bit for bit:
	// same makespan, same latency distribution, same counters.
	for _, scheme := range []Scheme{SchemeCatfish, SchemeTCP40G} {
		scheme := scheme
		t.Run(scheme.Name, func(t *testing.T) {
			base, err := Run(hybridConfig(scheme, 4))
			if err != nil {
				t.Fatal(err)
			}
			cfg := hybridConfig(scheme, 4)
			cfg.Shards = 1
			one, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, one) {
				t.Errorf("Shards=1 diverges from single-server run:\nbase: %+v\nK=1:  %+v", base, one)
			}
		})
	}
}

func TestShardedRunCounts(t *testing.T) {
	// A K=4 sharded run executes every op, splits the dataset across the
	// shards, and reports coherent per-shard stats — on the ring (adaptive
	// Catfish) and over TCP.
	for _, scheme := range []Scheme{SchemeCatfish, SchemeTCP40G} {
		scheme := scheme
		t.Run(scheme.Name, func(t *testing.T) {
			cfg := hybridConfig(scheme, 4)
			cfg.Shards = 4
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 4*50 {
				t.Errorf("ops = %d, want 200", res.Ops)
			}
			if res.Kops <= 0 || res.Makespan <= 0 {
				t.Errorf("kops=%v makespan=%v", res.Kops, res.Makespan)
			}
			if len(res.PerShard) != 4 {
				t.Fatalf("PerShard has %d entries", len(res.PerShard))
			}
			entries, shardOps := 0, uint64(0)
			for _, sr := range res.PerShard {
				entries += sr.Entries
				shardOps += sr.Ops
			}
			if entries != len(cfg.Dataset) {
				t.Errorf("shards own %d entries, dataset has %d", entries, len(cfg.Dataset))
			}
			if shardOps == 0 {
				t.Error("no server-side ops recorded")
			}
			if res.FanoutPerSearch < 1 {
				t.Errorf("fan-out per search = %v, want >= 1", res.FanoutPerSearch)
			}
			if res.SkippedSearches != 0 || res.UnhealthyWrites != 0 {
				t.Errorf("healthy run skipped %d searches, rejected %d writes",
					res.SkippedSearches, res.UnhealthyWrites)
			}
			if res.ServerStats.Searches == 0 {
				t.Error("aggregate server stats empty")
			}
		})
	}
}

func TestShardedBatchedRun(t *testing.T) {
	cfg := hybridConfig(SchemeFastEvent, 4)
	cfg.Shards = 2
	cfg.BatchSize = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4*50 {
		t.Errorf("ops = %d, want 200", res.Ops)
	}
	if res.Batches == 0 {
		t.Error("batched sharded run shipped no containers")
	}
}

func TestShardedDeterminism(t *testing.T) {
	cfg := hybridConfig(SchemeCatfish, 4)
	cfg.Shards = 4
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded runs nondeterministic:\na: %+v\nb: %+v", a, b)
	}
}

func TestShardedRejectsPrebuiltTree(t *testing.T) {
	// A prebuilt tree holds the whole dataset; every K partitions it
	// differently, so reuse across sharded runs is impossible.
	reg, err := region.New(1<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The rest would be silently dropped (failover is the router's job, and
	// one server has no router) or index past the shards in the fault
	// injector.
	for name, mutate := range map[string]func(*Config){
		"PrebuiltTree with Shards > 1":  func(c *Config) { c.Shards = 2; c.PrebuiltTree = tree },
		"Replicas > 1 without shards":   func(c *Config) { c.Replicas = 2 },
		"FailAfter without shards":      func(c *Config) { c.FailAfter = 50 * time.Microsecond },
		"VerifyQueries with Shards = 1": func(c *Config) { c.Shards = 1; c.VerifyQueries = 10 },
		"FailShard past the shards":     func(c *Config) { c.Shards = 2; c.Replicas = 2; c.FailAfter = time.Microsecond; c.FailShard = 2 },
		"negative FailShard":            func(c *Config) { c.Shards = 2; c.Replicas = 2; c.FailAfter = time.Microsecond; c.FailShard = -1 },
	} {
		bad := smallConfig(SchemeCatfish, 2)
		mutate(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
}
