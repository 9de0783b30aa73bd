package client

import (
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/server"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/wire"
)

// TestSearchFetchAgrees forces the fetch access method and checks every
// result against the brute-force tree search: mailbox delivery for large
// results, inline fallback for small ones, both correct.
func TestSearchFetchAgrees(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000, fetchSlots: 8})
	c := r.newClient(t, "c0", Config{Forced: MethodFetch, Fetch: true})
	rng := rand.New(rand.NewSource(3))
	r.e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			q := randRect(rng, rng.Float64()*0.2)
			want := expected(t, r.tree, q)
			items, used, err := c.On(p).Search(q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if used != MethodFetch {
				t.Errorf("used %v, want fetch", used)
			}
			if !sameItems(items, want) {
				t.Errorf("query %d: %d items, want %d", i, len(items), lenTotal(want))
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.FetchSearches != 40 {
		t.Errorf("fetch searches = %d, want 40", st.FetchSearches)
	}
	if st.FetchBytes == 0 || st.FetchPulls == 0 {
		t.Errorf("no mailbox pulls recorded: %+v", st)
	}
	if st.FetchInline == 0 {
		t.Error("no inline fallback despite small-result queries")
	}
	if st.FetchFallbacks != 0 {
		t.Errorf("fetch fallbacks = %d, want 0 on a read-only run", st.FetchFallbacks)
	}
	srvStats := r.srv.Stats()
	if srvStats.FetchSearches != 40 {
		t.Errorf("server fetch searches = %d", srvStats.FetchSearches)
	}
	if srvStats.FetchBytes == 0 {
		t.Error("server delivered no mailbox bytes")
	}
	if used, _ := r.srv.Mailbox().Occupancy(); used != 0 {
		t.Errorf("mailbox leaked %d slots", used)
	}
}

// TestSearchFetchInlineThreshold pins the inline decision: with the inline
// threshold forced to 1 item, everything above it travels via the mailbox.
func TestSearchFetchInlineThreshold(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 3000, fetchSlots: 4, fetchInline: 1})
	c := r.newClient(t, "c0", Config{Forced: MethodFetch, Fetch: true})
	rng := rand.New(rand.NewSource(5))
	r.e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			q := randRect(rng, 0.1+rng.Float64()*0.2)
			want := expected(t, r.tree, q)
			if lenTotal(want) <= 1 {
				continue
			}
			items, _, err := c.On(p).Search(q)
			if err != nil {
				t.Error(err)
				return
			}
			if !sameItems(items, want) {
				t.Errorf("query %d mismatch", i)
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.FetchInline != 0 {
		t.Errorf("inline = %d with threshold 1 and multi-item results", st.FetchInline)
	}
	if st.FetchBytes == 0 {
		t.Error("no mailbox deliveries")
	}
}

// TestSearchFetchWithoutMailboxDegrades checks that forcing fetch against a
// server with no mailbox silently degrades to fast messaging — fetch is
// never a correctness dependency.
func TestSearchFetchWithoutMailboxDegrades(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 2000})
	c := r.newClient(t, "c0", Config{Forced: MethodFetch, Fetch: true})
	rng := rand.New(rand.NewSource(6))
	r.e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			q := randRect(rng, rng.Float64()*0.2)
			want := expected(t, r.tree, q)
			items, _, err := c.On(p).Search(q)
			if err != nil {
				t.Error(err)
				return
			}
			if !sameItems(items, want) {
				t.Errorf("query %d mismatch", i)
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.FetchBytes != 0 || st.FetchPulls != 0 {
		t.Errorf("pulled a mailbox that does not exist: %+v", st)
	}
}

// TestBatchWithFetch routes a batch's searches through the fetch method and
// checks results against a fast-messaging batch of the same operations.
func TestBatchWithFetch(t *testing.T) {
	r := newRig(t, rigOpts{mode: server.ModeEvent, items: 5000, fetchSlots: 8})
	cFetch := r.newClient(t, "c0", Config{Forced: MethodFetch, Fetch: true})
	cFast := r.newClient(t, "c1", Config{Forced: MethodFast})
	rng := rand.New(rand.NewSource(9))
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{Type: wire.MsgSearch, Rect: randRect(rng, rng.Float64()*0.2)}
	}
	r.e.Spawn("driver", func(p *sim.Proc) {
		var fetchRes, fastRes []BatchResult
		fetchRes = cFetch.On(p).ExecBatch(ops, fetchRes)
		fastRes = cFast.On(p).ExecBatch(ops, fastRes)
		for i := range ops {
			if fetchRes[i].Err != nil || fastRes[i].Err != nil {
				t.Errorf("op %d: fetch err=%v fast err=%v", i, fetchRes[i].Err, fastRes[i].Err)
				continue
			}
			if fetchRes[i].Method != MethodFetch {
				t.Errorf("op %d method %v", i, fetchRes[i].Method)
			}
			want := map[uint64]int{}
			for _, it := range fastRes[i].Items {
				want[it.Ref]++
			}
			if !sameItems(fetchRes[i].Items, want) {
				t.Errorf("op %d: %d items, fast got %d", i, len(fetchRes[i].Items), len(fastRes[i].Items))
			}
		}
		p.Engine().Stop()
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := cFetch.Stats(); st.FetchSearches != 8 {
		t.Errorf("fetch searches = %d, want 8", st.FetchSearches)
	}
	if used, _ := r.srv.Mailbox().Occupancy(); used != 0 {
		t.Errorf("mailbox leaked %d slots", used)
	}
}
