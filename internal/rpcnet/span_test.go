package rpcnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

func sortedRefs(items []wire.Item) map[uint64]int {
	m := make(map[uint64]int, len(items))
	for _, it := range items {
		m[it.Ref]++
	}
	return m
}

// TestSpanReadsOverTCP: a merge-span client answers every query exactly
// like the per-chunk client while the server actually serves multi-chunk READs —
// the TCP analogue of merged adjacent RDMA reads over the preorder layout.
func TestSpanReadsOverTCP(t *testing.T) {
	srv, tree := startServer(t, 5000, ServerConfig{})
	plain := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true})
	span := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true, MergeSpan: 8})

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		q := randRect(rng, 0.5)
		want, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := plain.Search(q)
		if err != nil {
			t.Fatalf("query %d plain: %v", i, err)
		}
		b, _, err := span.Search(q)
		if err != nil {
			t.Fatalf("query %d span: %v", i, err)
		}
		if len(a) != len(want) || len(b) != len(want) {
			t.Fatalf("query %d: plain %d, span %d, oracle %d items", i, len(a), len(b), len(want))
		}
		br := sortedRefs(b)
		for _, e := range want {
			if br[e.Ref] == 0 {
				t.Fatalf("query %d: span client missed ref %d", i, e.Ref)
			}
			br[e.Ref]--
		}
	}
	ss := srv.Stats()
	reads, chunks := ss.Reads[wire.SpaceChunks], ss.ReadChunks[wire.SpaceChunks]
	if reads == 0 {
		t.Fatal("server served no chunk reads")
	}
	if chunks <= reads {
		t.Errorf("chunk reads carried %d chunks over %d round trips — no merging", chunks, reads)
	}
	ps, zs := plain.Stats(), span.Stats()
	if zs.ReadWQEs >= ps.ReadWQEs {
		t.Errorf("span client made %d round trips, per-chunk client %d", zs.ReadWQEs, ps.ReadWQEs)
	}
	t.Logf("round trips: per-chunk=%d span=%d (server reads=%d chunks=%d)",
		ps.ReadWQEs, zs.ReadWQEs, reads, chunks)
}

// TestPrefetchOverTCP: behind a demand run ending on a subtree the query
// fully contains, span extension parks speculative chunks for the next
// frontier round; adoption and waste are both accounted, results stay
// oracle-exact, and speculation never fails a search. Queries are wide
// enough to CONTAIN level-1 subtrees — the containment gate skips
// partially-overlapped children whose leaf demand is a gamble — and the
// node cache is off so every wave demand-reads its internal nodes, the
// precondition for a span to ride one.
func TestPrefetchOverTCP(t *testing.T) {
	srv, tree := startServer(t, 5000, ServerConfig{HeartbeatInterval: 5 * time.Millisecond})
	pref := dial(t, srv, ClientConfig{Forced: MethodOffload, MultiIssue: true,
		MergeSpan: 8, Prefetch: 64, T: 0.95})

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		q := randRect(rng, 0.5)
		want, _, err := tree.SearchCollect(q)
		if err != nil {
			t.Fatal(err)
		}
		items, _, err := pref.Search(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(items) != len(want) {
			t.Fatalf("query %d: got %d items, want %d", i, len(items), len(want))
		}
	}
	s := pref.Stats()
	if s.PrefetchIssued == 0 {
		t.Fatal("no speculative span extensions issued")
	}
	if s.PrefetchHits+s.PrefetchWaste == 0 {
		t.Error("speculative chunks neither adopted nor written off")
	}
	t.Logf("prefetch issued=%d hits=%d waste=%d round trips=%d",
		s.PrefetchIssued, s.PrefetchHits, s.PrefetchWaste, s.ReadWQEs)
}

// TestSpanOutOfRangeRejected: the server bounds-checks spans, and counts
// no chunk for a refusal.
func TestSpanOutOfRangeRejected(t *testing.T) {
	srv, tree := startServer(t, 100, ServerConfig{})
	c := dial(t, srv, ClientConfig{})
	n := tree.Region().NumChunks()
	for _, bad := range []wire.Read{
		{Chunk: uint32(n - 1), Count: 2}, // crosses the region end
		{Chunk: 0, Count: 0},
		{Chunk: 0, Count: maxSpanChunks + 1},
	} {
		bad.ID = c.nextID()
		d, err := c.call(bad.ID, bad.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		_, status, _, err := wire.DecodeRawReply(d.msg)
		d.release()
		if err != nil {
			t.Fatal(err)
		}
		if status == wire.StatusOK {
			t.Errorf("span %+v accepted, want rejection", bad)
		}
	}
	// Refused reads count as reads, and carry no chunks.
	if st := srv.Stats(); st.Reads[wire.SpaceChunks] != 3 || st.ReadChunks[wire.SpaceChunks] != 0 {
		t.Errorf("after 3 refused reads: %d reads, %d chunks; want 3, 0", st.Reads[wire.SpaceChunks], st.ReadChunks[wire.SpaceChunks])
	}
	// The connection survives: a normal search still works.
	if _, _, err := c.Search(geo.NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
}
