//go:build !race

// Race instrumentation allocates on its own; the zero-allocation assertion
// on the store's query path only runs in non-race builds.
package kv

import (
	"testing"

	"github.com/catfish-db/catfish/internal/btree"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/wire"
)

// TestStoreQueryZeroAlloc: the store's part of a fast-messaging point get
// and of a 100-pair range scan — the B+-tree descent, the leaf-chain walk
// and the packed items — allocates nothing once the items buffer is warm.
func TestStoreQueryZeroAlloc(t *testing.T) {
	reg, err := region.New(1<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(reg, btree.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4000; k++ {
		if err := tree.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore(tree)
	items := make([]byte, 0, 128*wire.ItemSize)
	for _, tc := range []struct {
		name     string
		from, to uint64
		pairs    int
	}{{"get", 1234, 1234, 1}, {"range", 2000, 2099, 100}} {
		req := wire.Request{Type: wire.MsgSearch, Rect: proto.KeyRange(tc.from, tc.to)}
		var got []byte
		if allocs := testing.AllocsPerRun(100, func() {
			if got, _, err = s.Query(req, items[:0]); err != nil {
				t.Error(err)
			}
		}); allocs != 0 {
			t.Errorf("%s Query allocates %.1f objects/op, want 0", tc.name, allocs)
		}
		if n := len(got) / wire.ItemSize; n != tc.pairs {
			t.Errorf("%s Query returned %d pairs, want %d", tc.name, n, tc.pairs)
		}
	}
}
