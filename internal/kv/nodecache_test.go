package kv

import (
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/telemetry"
)

func TestKVNodeCacheSavesFetches(t *testing.T) {
	// Two offload clients against one server: the cached one must answer
	// the same Gets with fewer full chunk reads and visible cache activity.
	r := newRig(t, rigOpts{keys: 2000, heartbeat: time.Millisecond})
	plain := r.newClient(t, ClientConfig{Forced: MethodOffload, HeartbeatInv: time.Millisecond})
	cached := r.newClient(t, ClientConfig{Forced: MethodOffload, HeartbeatInv: time.Millisecond, NodeCache: 128})
	var ps, cs telemetry.ClientSnapshot
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		for k := uint64(0); k < 2000; k += 13 {
			pv, _, perr := plain.Get(p, k*2)
			cv, _, cerr := cached.Get(p, k*2)
			if perr != nil || cerr != nil || pv != cv || cv != k {
				t.Errorf("get %d: plain=(%d,%v) cached=(%d,%v)", k*2, pv, perr, cv, cerr)
				return
			}
		}
		ps, cs = plain.Stats(), cached.Stats()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if cs.CacheHits+cs.CacheVerifiedHits == 0 {
		t.Error("kv node cache never hit")
	}
	if cs.CacheBytesSaved == 0 {
		t.Error("no bytes saved recorded")
	}
	t.Logf("cache: hits=%d verified=%d misses=%d versionReads=%d saved=%dB (plain offloads=%d)",
		cs.CacheHits, cs.CacheVerifiedHits, cs.CacheMisses, cs.VersionReads, cs.CacheBytesSaved, ps.OffloadSearches)
}

func TestKVNodeCacheCoherentUnderWrites(t *testing.T) {
	// A fast-messaging writer updates and inserts (splitting leaves) while a
	// cached offload reader Gets; reads must always see their key's latest
	// committed value once the lease has expired, and never a wrong value.
	r := newRig(t, rigOpts{keys: 500, heartbeat: time.Millisecond, staged: true})
	writer := r.newClient(t, ClientConfig{Forced: MethodFast})
	reader := r.newClient(t, ClientConfig{Forced: MethodOffload, HeartbeatInv: time.Millisecond, NodeCache: 128})
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		for round := uint64(1); round <= 3; round++ {
			// Insert a fresh batch (splits nodes) and rewrite one hot key.
			for k := uint64(0); k < 300; k++ {
				if err := writer.Put(p, 100_000*round+k, round); err != nil {
					t.Error(err)
					return
				}
			}
			if err := writer.Put(p, 42*2, round); err != nil {
				t.Error(err)
				return
			}
			// Let the lease lapse so the cache must revalidate.
			p.Sleep(2 * time.Millisecond)
			if v, _, err := reader.Get(p, 42*2); err != nil || v != round {
				t.Errorf("round %d: hot key = %d, %v (want %d)", round, v, err, round)
				return
			}
			if v, _, err := reader.Get(p, 100_000*round); err != nil || v != round {
				t.Errorf("round %d: new key = %d, %v", round, v, err)
				return
			}
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st := reader.Stats()
	t.Logf("reader: hits=%d verified=%d misses=%d staleRestarts=%d",
		st.CacheHits, st.CacheVerifiedHits, st.CacheMisses, st.StaleRestarts)
}
