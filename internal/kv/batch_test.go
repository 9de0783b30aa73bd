package kv

import (
	"errors"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/sim"
)

func TestGetBatchMatchesGet(t *testing.T) {
	// Batched point gets over the ring return exactly what the unbatched
	// client returns, present and absent keys alike, and a batch of one
	// delegates without shipping a container.
	r := newRig(t, rigOpts{keys: 2000})
	c := r.newClient(t, ClientConfig{Forced: MethodFast})
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		var results []GetResult
		for round := 0; round < 5; round++ {
			var keys []uint64
			for j := 0; j < 8; j++ {
				k := uint64(round*97+j*13) % 2000
				if j%3 == 2 {
					keys = append(keys, k*2+1) // odd keys are absent
				} else {
					keys = append(keys, k*2)
				}
			}
			results = c.GetBatch(p, keys, results)
			for j, res := range results {
				if j%3 == 2 {
					if !errors.Is(res.Err, ErrNotFound) {
						t.Errorf("round %d absent key %d: err = %v, want ErrNotFound",
							round, keys[j], res.Err)
					}
					continue
				}
				if res.Err != nil || res.Val != keys[j]/2 {
					t.Errorf("round %d get %d = %d, %v", round, keys[j], res.Val, res.Err)
				}
				if res.Method != MethodFast {
					t.Errorf("round %d key %d: method %v", round, keys[j], res.Method)
				}
			}
		}
		results = c.GetBatch(p, []uint64{40}, results)
		if results[0].Err != nil || results[0].Val != 20 {
			t.Errorf("single-key batch = %+v", results[0])
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.srv.Stats()
	if st.Batches != 5 || st.BatchedOps != 40 {
		t.Errorf("server batch stats = %d/%d, want 5/40 (single-key batch must delegate)",
			st.Batches, st.BatchedOps)
	}
	if c.Stats().BatchesSent != 5 || c.Stats().BatchedOps != 40 {
		t.Errorf("client batch stats = %d/%d, want 5/40",
			c.Stats().BatchesSent, c.Stats().BatchedOps)
	}
}

func TestGetBatchOffloadRoutesOneSided(t *testing.T) {
	// With the switch pinned to offloading, batched gets traverse the
	// B+-tree with one-sided reads and no container is sent.
	r := newRig(t, rigOpts{keys: 1000})
	c := r.newClient(t, ClientConfig{Forced: MethodOffload})
	r.e.Spawn("driver", func(p *sim.Proc) {
		defer r.e.Stop()
		keys := []uint64{10, 200, 1999, 404}
		results := c.GetBatch(p, keys, nil)
		for j, res := range results {
			if keys[j]%2 == 1 {
				if !errors.Is(res.Err, ErrNotFound) {
					t.Errorf("absent key %d: %v", keys[j], res.Err)
				}
				continue
			}
			if res.Err != nil || res.Val != keys[j]/2 || res.Method != MethodOffload {
				t.Errorf("key %d = %+v", keys[j], res)
			}
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().BatchesSent != 0 {
		t.Errorf("offload-only batch sent %d containers", c.Stats().BatchesSent)
	}
	if c.Stats().OffloadSearches != 4 {
		t.Errorf("offload reads = %d, want 4", c.Stats().OffloadSearches)
	}
}

func TestGetBatchAdaptiveSplit(t *testing.T) {
	// Adaptive batched gets against a saturated one-core server: per-key
	// switch consultation splits the batch between messaging and
	// offloading, and the counts add up exactly.
	r := newRig(t, rigOpts{keys: 2000, heartbeat: time.Millisecond, cores: 1})
	var clients []*Client
	for i := 0; i < 8; i++ {
		clients = append(clients, r.newClient(t, ClientConfig{
			Adaptive:     true,
			HeartbeatInv: time.Millisecond,
			T:            0.5,
		}))
	}
	const rounds, batch = 40, 8
	wg := sim.NewWaitGroup(r.e)
	for ci, c := range clients {
		c, ci := c, ci
		wg.Add(1)
		r.e.Spawn("driver", func(p *sim.Proc) {
			defer wg.Done()
			var keys []uint64
			var results []GetResult
			for j := 0; j < rounds; j++ {
				keys = keys[:0]
				for k := 0; k < batch; k++ {
					keys = append(keys, uint64((ci*1009+j*97+k*31)%2000)*2)
				}
				results = c.GetBatch(p, keys, results)
				for k, res := range results {
					if res.Err != nil || res.Val != keys[k]/2 {
						t.Errorf("round %d key %d = %+v", j, keys[k], res)
						return
					}
				}
			}
		})
	}
	r.e.Spawn("stopper", func(p *sim.Proc) {
		wg.Wait(p)
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	var fast, off, hb uint64
	for _, c := range clients {
		st := c.Stats()
		fast += st.FastSearches
		off += st.OffloadSearches
		hb += st.HeartbeatsSeen
	}
	if fast+off != 8*rounds*batch {
		t.Errorf("decide consulted %d times for %d gets (fast=%d off=%d)",
			fast+off, 8*rounds*batch, fast, off)
	}
	if hb == 0 {
		t.Fatal("no heartbeats observed")
	}
	if off == 0 || fast == 0 {
		t.Errorf("adaptive batched gets did not split: fast=%d off=%d", fast, off)
	}
}
