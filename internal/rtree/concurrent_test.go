package rtree

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

// TestConcurrentReads is the tree's read contract under a shared latch:
// eight goroutines run Search, SearchCollect, Nearest and Query (search and
// kNN requests) on one bulk-loaded tree at once, and every answer — items,
// their order and OpStats — equals the one a single-threaded run gives. The
// kNNs reach k past the pooled-scratch cap, so no two calls share pooled
// scratch. Run it under -race: a read that writes tree state fails here.
func TestConcurrentReads(t *testing.T) {
	tree := newTestTree(t, 4096, 16)
	rng := rand.New(rand.NewSource(22))
	entries := make([]Entry, 3000)
	for i := range entries {
		entries[i] = Entry{Rect: uniformRect(rng, 0.01), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(entries, 0); err != nil {
		t.Fatal(err)
	}

	// Each read returns what it saw, packed as wire items in order.
	type answer struct {
		items []byte
		st    OpStats
	}
	type read func() (answer, error)
	search := func(q geo.Rect) read {
		return func() (answer, error) {
			var a answer
			st, err := tree.Search(q, func(r geo.Rect, ref uint64) bool {
				a.items = wire.AppendItem(a.items, r, ref)
				return true
			})
			a.st = st
			return a, err
		}
	}
	searchCollect := func(q geo.Rect) read {
		return func() (answer, error) {
			got, st, err := tree.SearchCollect(q)
			a := answer{st: st}
			for _, e := range got {
				a.items = wire.AppendItem(a.items, e.Rect, e.Ref)
			}
			return a, err
		}
	}
	nearest := func(k int, x, y float64) read {
		return func() (answer, error) {
			got, st, err := tree.Nearest(k, x, y)
			a := answer{st: st}
			for _, n := range got {
				a.items = wire.AppendItem(a.items, n.Rect, n.Ref)
			}
			return a, err
		}
	}
	query := func(req wire.Request) read {
		return func() (answer, error) {
			items, st, err := tree.Query(req, nil)
			return answer{items, st}, err
		}
	}
	var reads []read
	for i := 0; i < 32; i++ {
		q := uniformRect(rng, 0.2)
		k, x, y := 1+rng.Intn(2*maxPooledScratch), rng.Float64(), rng.Float64()
		reads = append(reads,
			search(q), searchCollect(q), nearest(k, x, y),
			query(wire.Request{Type: wire.MsgSearch, Rect: q}),
			query(wire.KNNRequest(1, k, x, y)))
	}
	want := make([]answer, len(reads))
	for i, r := range reads {
		var err error
		if want[i], err = r(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range reads {
				j := (i + g*len(reads)/8) % len(reads)
				got, err := reads[j]()
				if err != nil || got.st != want[j].st || !bytes.Equal(got.items, want[j].items) {
					t.Errorf("goroutine %d, read %d: answer differs from the single-threaded run (err %v)", g, j, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
