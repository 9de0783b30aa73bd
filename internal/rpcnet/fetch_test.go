package rpcnet

import (
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/wire"
)

// TestFetchOverTCPAgrees forces the fetch method over real TCP and checks
// every result against the tree: descriptor + mailbox READ pulls for large
// results, inline responses at or below the threshold.
func TestFetchOverTCPAgrees(t *testing.T) {
	srv, tree := startServer(t, 5000, ServerConfig{FetchSlots: 8, FetchInlineMax: 4})
	c := dial(t, srv, ClientConfig{Forced: MethodFetch, Fetch: true})

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 25; i++ {
		q := randRect(rng, rng.Float64()*0.2)
		ents, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]int{}
		for _, e := range ents {
			want[e.Ref]++
		}
		items, used, err := c.Search(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if used != MethodFetch {
			t.Fatalf("query %d used %v, want fetch", i, used)
		}
		if !sameRefs(refCounts(items), want) {
			t.Fatalf("query %d: %d items, want %d", i, len(items), len(want))
		}
	}

	st := c.Stats()
	if st.FetchSearches != 25 {
		t.Errorf("fetch searches = %d, want 25", st.FetchSearches)
	}
	if st.FetchBytes == 0 || st.FetchPulls == 0 {
		t.Errorf("no mailbox pulls recorded: %+v", st)
	}
	if st.FetchFallbacks != 0 {
		t.Errorf("fetch fallbacks = %d on a read-only run", st.FetchFallbacks)
	}
	ss := srv.Stats()
	if ss.FetchSearches != 25 {
		t.Errorf("server fetch searches = %d", ss.FetchSearches)
	}
	if ss.FetchBytes == 0 || ss.Reads[wire.SpaceMailbox] == 0 {
		t.Errorf("server mailbox counters zero: fetchBytes=%d mailbox reads=%d",
			ss.FetchBytes, ss.Reads[wire.SpaceMailbox])
	}
}

// TestFetchWithoutMailboxOverTCP pins the degradation path: a server with no
// mailbox advertises zero fetch slots, and a forced-fetch client falls back
// to fast messaging with correct results and no pull traffic.
func TestFetchWithoutMailboxOverTCP(t *testing.T) {
	srv, tree := startServer(t, 2000, ServerConfig{})
	c := dial(t, srv, ClientConfig{Forced: MethodFetch, Fetch: true})
	if c.Hello().FetchSlots != 0 {
		t.Fatalf("server without mailbox advertised %d fetch slots", c.Hello().FetchSlots)
	}

	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 10; i++ {
		q := randRect(rng, rng.Float64()*0.2)
		ents, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		items, _, err := c.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(ents) {
			t.Fatalf("query %d: %d items, want %d", i, len(items), len(ents))
		}
	}
	if st := c.Stats(); st.FetchBytes != 0 || st.FetchPulls != 0 {
		t.Errorf("pulled a mailbox that does not exist: %+v", st)
	}
}

// TestBatchFetchOverTCP routes a batch's searches through fetch and compares
// against a fast-messaging batch of the same operations.
func TestBatchFetchOverTCP(t *testing.T) {
	srv, _ := startServer(t, 5000, ServerConfig{FetchSlots: 8, FetchInlineMax: 4})
	cFetch := dial(t, srv, ClientConfig{Forced: MethodFetch, Fetch: true})
	cFast := dial(t, srv, ClientConfig{Forced: MethodFast})

	rng := rand.New(rand.NewSource(47))
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{Type: wire.MsgSearch, Rect: randRect(rng, rng.Float64()*0.2)}
	}
	fetchRes := cFetch.ExecBatch(ops, nil)
	fastRes := cFast.ExecBatch(ops, nil)
	for i := range ops {
		if fetchRes[i].Err != nil || fastRes[i].Err != nil {
			t.Errorf("op %d: fetch err=%v fast err=%v", i, fetchRes[i].Err, fastRes[i].Err)
			continue
		}
		if fetchRes[i].Method != MethodFetch {
			t.Errorf("op %d method %v, want fetch", i, fetchRes[i].Method)
		}
		if !sameRefs(refCounts(fetchRes[i].Items), refCounts(fastRes[i].Items)) {
			t.Errorf("op %d: fetch %d items, fast %d", i,
				len(fetchRes[i].Items), len(fastRes[i].Items))
		}
	}
	if st := cFetch.Stats(); st.FetchSearches != 8 {
		t.Errorf("fetch searches = %d, want 8", st.FetchSearches)
	}
}
