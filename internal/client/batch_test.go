package client

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

func searchOp(q geo.Rect) BatchOp { return BatchOp{Type: wire.MsgSearch, Rect: q} }

func TestExecBatchMatchesUnbatched(t *testing.T) {
	// Batched searches over the ring must return exactly what the
	// brute-force tree search (and hence the unbatched client) returns.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
	c := r.newClient(t, "c0", Config{Forced: MethodFast})
	rng := rand.New(rand.NewSource(21))
	r.e.Spawn("driver", func(p *sim.Proc) {
		var results []BatchResult
		for round := 0; round < 10; round++ {
			var ops []BatchOp
			var want []map[uint64]int
			for j := 0; j < 8; j++ {
				q := randRect(rng, rng.Float64()*0.1)
				ops = append(ops, searchOp(q))
				want = append(want, expected(t, r.tree, q))
			}
			results = c.On(p).ExecBatch(ops, results)
			for j, res := range results {
				if res.Err != nil {
					t.Errorf("round %d op %d: %v", round, j, res.Err)
					return
				}
				if res.Method != MethodFast {
					t.Errorf("round %d op %d: method %v", round, j, res.Method)
				}
				if !sameItems(res.Items, want[j]) {
					t.Errorf("round %d op %d: %d items, want %d",
						round, j, len(res.Items), lenTotal(want[j]))
				}
			}
		}
		// A batch of one delegates to the unbatched path.
		q := randRect(rng, 0.05)
		results = c.On(p).ExecBatch([]BatchOp{searchOp(q)}, results)
		if results[0].Err != nil || !sameItems(results[0].Items, expected(t, r.tree, q)) {
			t.Errorf("single-op batch mismatch: %+v", results[0])
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.srv.Stats()
	if st.Batches != 10 {
		t.Errorf("server batches = %d, want 10 (the single-op batch must not ship a container)", st.Batches)
	}
	if st.BatchedOps != 80 {
		t.Errorf("server batched ops = %d, want 80", st.BatchedOps)
	}
	cst := c.Stats()
	if cst.BatchesSent != 10 || cst.BatchedOps != 80 {
		t.Errorf("client batch stats = %d/%d, want 10/80", cst.BatchesSent, cst.BatchedOps)
	}
}

func TestExecBatchTCP(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000, tcpNet: true})
	c := r.newTCPClient(t, "c0")
	rng := rand.New(rand.NewSource(22))
	r.e.Spawn("driver", func(p *sim.Proc) {
		var ops []BatchOp
		var want []map[uint64]int
		for j := 0; j < 6; j++ {
			q := randRect(rng, rng.Float64()*0.2)
			ops = append(ops, searchOp(q))
			want = append(want, expected(t, r.tree, q))
		}
		results := c.On(p).ExecBatch(ops, nil)
		for j, res := range results {
			if res.Err != nil {
				t.Errorf("op %d: %v", j, res.Err)
				return
			}
			if res.Method != MethodTCP {
				t.Errorf("op %d: method %v, want tcp", j, res.Method)
			}
			if !sameItems(res.Items, want[j]) {
				t.Errorf("op %d mismatch", j)
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Stats().Batches == 0 {
		t.Error("TCP batch container never reached the server")
	}
}

func TestBatchMixedReadWrite(t *testing.T) {
	// A batch mixing reads and writes executes in submission order under one
	// exclusive latch: an insert earlier in the batch is visible to a search
	// later in the same batch, and per-op errors stay per-op.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 500})
	c := r.newClient(t, "c0", Config{Forced: MethodFast})
	target := geo.NewRect(0.71, 0.71, 0.72, 0.72)
	r.e.Spawn("driver", func(p *sim.Proc) {
		ops := []BatchOp{
			{Type: wire.MsgInsert, Rect: target, Ref: 777777},
			searchOp(target),
			{Type: wire.MsgDelete, Rect: target, Ref: 888888}, // never inserted
			searchOp(geo.NewRect(0, 0, 0.2, 0.2)),
		}
		results := c.On(p).ExecBatch(ops, nil)
		if results[0].Err != nil {
			t.Errorf("insert: %v", results[0].Err)
		}
		found := false
		for _, it := range results[1].Items {
			if it.Ref == 777777 {
				found = true
			}
		}
		if results[1].Err != nil || !found {
			t.Errorf("search after same-batch insert: err=%v found=%v", results[1].Err, found)
		}
		if !errors.Is(results[2].Err, ErrNotFound) {
			t.Errorf("delete of absent ref: err=%v, want ErrNotFound", results[2].Err)
		}
		if results[3].Err != nil {
			t.Errorf("trailing search: %v", results[3].Err)
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.srv.Stats()
	if st.Batches != 1 || st.BatchedOps != 4 {
		t.Errorf("server batch stats = %d/%d, want 1/4", st.Batches, st.BatchedOps)
	}
	if st.Inserts != 1 || st.Deletes != 1 || st.Searches != 2 {
		t.Errorf("server op stats = %+v", st)
	}
	if err := r.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBatchWritesNeverOffload(t *testing.T) {
	// §IV-A: writes always go through fast messaging. Even with the switch
	// pinned to offloading, the batch's inserts must travel in the container
	// while its searches traverse client-side — concurrently.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 3000})
	c := r.newClient(t, "c0", Config{Forced: MethodOffload, MultiIssue: true})
	rng := rand.New(rand.NewSource(23))
	r.e.Spawn("driver", func(p *sim.Proc) {
		var ops []BatchOp
		var want []map[uint64]int
		for j := 0; j < 4; j++ {
			q := randRect(rng, 0.05)
			ops = append(ops, searchOp(q))
			want = append(want, expected(t, r.tree, q))
		}
		ops = append(ops,
			BatchOp{Type: wire.MsgInsert, Rect: randRect(rng, 0.01), Ref: 900001},
			BatchOp{Type: wire.MsgInsert, Rect: randRect(rng, 0.01), Ref: 900002})
		results := c.On(p).ExecBatch(ops, nil)
		for j := 0; j < 4; j++ {
			if results[j].Err != nil || results[j].Method != MethodOffload {
				t.Errorf("search %d: method=%v err=%v", j, results[j].Method, results[j].Err)
			}
			if !sameItems(results[j].Items, want[j]) {
				t.Errorf("search %d mismatch", j)
			}
		}
		for j := 4; j < 6; j++ {
			if results[j].Err != nil || results[j].Method != MethodFast {
				t.Errorf("insert %d: method=%v err=%v (writes must use messaging)",
					j, results[j].Method, results[j].Err)
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st, cst := r.srv.Stats(), c.Stats()
	if st.Inserts != 2 {
		t.Errorf("server inserts = %d, want 2", st.Inserts)
	}
	if cst.FastSearches != 0 || cst.OffloadSearches != 4 {
		t.Errorf("client search split = fast %d / offload %d, want 0/4",
			cst.FastSearches, cst.OffloadSearches)
	}
	if st.BatchedOps != 2 {
		t.Errorf("container carried %d ops, want only the 2 writes", st.BatchedOps)
	}
}

func TestBatchAdaptiveBackoffAccounting(t *testing.T) {
	// Adaptive clients driving batches against a saturated one-core server:
	// every search must consult the switch individually (fast + offload
	// counts add up exactly), the back-off window must engage (offloads),
	// and inserts must reach the server via messaging regardless.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 3000, heartbeat: time.Millisecond, cores: 1})
	var clients []*Client
	for i := 0; i < 8; i++ {
		clients = append(clients, r.newClient(t, "c", Config{
			Adaptive:     true,
			MultiIssue:   true,
			HeartbeatInv: time.Millisecond,
			T:            0.5,
		}))
	}
	rng := rand.New(rand.NewSource(24))
	const rounds, batch = 40, 8
	wg := sim.NewWaitGroup(r.e)
	for _, c := range clients {
		c := c
		wg.Add(1)
		r.e.Spawn("driver", func(p *sim.Proc) {
			defer wg.Done()
			var ops []BatchOp
			var results []BatchResult
			ref := uint64(1 << 20)
			for j := 0; j < rounds; j++ {
				ops = ops[:0]
				for k := 0; k < batch-1; k++ {
					ops = append(ops, searchOp(randRect(rng, 0.001)))
				}
				ref++
				ops = append(ops, BatchOp{Type: wire.MsgInsert, Rect: randRect(rng, 0.001), Ref: ref})
				results = c.On(p).ExecBatch(ops, results)
				for k, res := range results {
					if res.Err != nil {
						t.Errorf("round %d op %d: %v", j, k, res.Err)
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
	var fast, off, hb, inserts uint64
	for _, c := range clients {
		st := c.Stats()
		fast += st.FastSearches
		off += st.OffloadSearches
		hb += st.HeartbeatsSeen
		inserts += st.Inserts
	}
	const searches = 8 * rounds * (batch - 1)
	if fast+off != searches {
		t.Errorf("decide consulted %d times for %d searches (fast=%d off=%d)",
			fast+off, searches, fast, off)
	}
	if hb == 0 {
		t.Fatal("no heartbeats observed")
	}
	if off == 0 {
		t.Errorf("back-off never engaged under saturation (fast=%d)", fast)
	}
	if fast == 0 {
		t.Errorf("clients never used fast messaging (off=%d)", off)
	}
	if r.srv.Stats().Inserts != 8*rounds {
		t.Errorf("server inserts = %d, want %d (writes must never offload)",
			r.srv.Stats().Inserts, 8*rounds)
	}
}

func TestBatchLargeResponsesSegmented(t *testing.T) {
	// Two whole-space queries in one batch: each response spans many CONT
	// segments nested inside batch containers, and both reassemble fully.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000})
	c := r.newClient(t, "c0", Config{Forced: MethodFast})
	r.e.Spawn("driver", func(p *sim.Proc) {
		all := geo.NewRect(0, 0, 1, 1)
		results := c.On(p).ExecBatch([]BatchOp{searchOp(all), searchOp(all)}, nil)
		for j, res := range results {
			if res.Err != nil {
				t.Errorf("op %d: %v", j, res.Err)
			}
			if len(res.Items) != 5000 {
				t.Errorf("op %d: %d items, want 5000", j, len(res.Items))
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Stats().Segments < 20 {
		t.Errorf("segments = %d, expected many for two 5000-item responses", r.srv.Stats().Segments)
	}
}

func TestStatsSnapshotDuringLiveWorkload(t *testing.T) {
	// Satellite for the data-race fix: hammer server and client Stats()
	// from a second goroutine while the engine executes a batched workload.
	// Run under -race this fails loudly if any counter is unsynchronized.
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000, heartbeat: time.Millisecond})
	c := r.newClient(t, "c0", Config{Adaptive: true, MultiIssue: true, HeartbeatInv: time.Millisecond})
	rng := rand.New(rand.NewSource(25))
	r.e.Spawn("driver", func(p *sim.Proc) {
		var ops []BatchOp
		var results []BatchResult
		for i := 0; i < 60; i++ {
			ops = ops[:0]
			for j := 0; j < 8; j++ {
				ops = append(ops, searchOp(randRect(rng, 0.01)))
			}
			results = c.On(p).ExecBatch(ops, results)
			for _, res := range results {
				if res.Err != nil {
					t.Error(res.Err)
					return
				}
			}
		}
		p.Engine().Stop()
	})
	done := make(chan error, 1)
	go func() { done <- r.e.Run() }()
	var snaps uint64
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if snaps == 0 {
				t.Error("stats reader never ran")
			}
			if r.srv.Stats().Searches == 0 {
				t.Error("no searches recorded")
			}
			return
		default:
			_ = r.srv.Stats()
			_ = c.Stats()
			snaps++
			runtime.Gosched()
		}
	}
}
