package btree

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/catfish-db/catfish/internal/region"
)

func newTestTree(t testing.TB, nchunks, maxEntries int) *Tree {
	t.Helper()
	reg, err := region.New(nchunks, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(reg, Config{MaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewValidation(t *testing.T) {
	reg, err := region.New(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(reg, Config{MaxEntries: 2}); err == nil {
		t.Error("tiny MaxEntries should fail")
	}
	reg2, _ := region.New(4, 4096)
	if _, err := New(reg2, Config{MaxEntries: 10_000}); err == nil {
		t.Error("over-capacity MaxEntries should fail")
	}
	reg3, _ := region.New(4, 4096)
	tree, err := New(reg3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxEntries() != 223 {
		t.Errorf("default MaxEntries = %d, want 223 (4 KB chunk)", tree.MaxEntries())
	}
}

func TestEmptyTree(t *testing.T) {
	tree := newTestTree(t, 8, 8)
	if _, err := tree.Get(5); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty = %v", err)
	}
	if err := tree.Delete(5); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete on empty = %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertGetBasic(t *testing.T) {
	tree := newTestTree(t, 64, 8)
	for k := uint64(1); k <= 20; k++ {
		if err := tree.Insert(k*10, k); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 20 {
		t.Errorf("Len = %d", tree.Len())
	}
	for k := uint64(1); k <= 20; k++ {
		v, err := tree.Get(k * 10)
		if err != nil || v != k {
			t.Fatalf("Get(%d) = %d, %v", k*10, v, err)
		}
	}
	if _, err := tree.Get(5); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key err = %v", err)
	}
	if err := tree.Insert(100, 1); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate insert err = %v", err)
	}
	if err := tree.Update(100, 777); err != nil {
		t.Fatal(err)
	}
	if v, _ := tree.Get(100); v != 777 {
		t.Errorf("after update Get = %d", v)
	}
	// A custom publisher sees every node write; SetPublisher(nil)
	// restores the default one.
	published := 0
	tree.SetPublisher(func(id int, payload []byte) error {
		published++
		return tree.Region().WriteChunkPrefix(id, payload)
	})
	if err := tree.Insert(5, 5); err != nil || published == 0 {
		t.Fatalf("insert through a custom publisher: err %v, %d writes seen", err, published)
	}
	seen := published
	tree.SetPublisher(nil)
	if err := tree.Insert(6, 6); err != nil || published != seen {
		t.Fatalf("insert after SetPublisher(nil): err %v, %d writes seen, want %d", err, published, seen)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSplitsGrowHeight(t *testing.T) {
	tree := newTestTree(t, 256, 8)
	root := tree.RootChunk()
	for k := uint64(0); k < 200; k++ {
		if err := tree.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 3 {
		t.Errorf("height = %d after 200 sequential inserts with M=8", tree.Height())
	}
	if tree.RootChunk() != root {
		t.Error("root chunk moved")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScan(t *testing.T) {
	tree := newTestTree(t, 256, 8)
	for k := uint64(0); k < 100; k++ {
		if err := tree.Insert(k*2, k); err != nil { // even keys 0..198
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := tree.Range(10, 30, func(k, _ uint64) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tree.Range(0, 1000, func(uint64, uint64) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	tree := newTestTree(t, 4096, 8)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(42))
	var keys []uint64
	for step := 0; step < 6000; step++ {
		op := rng.Float64()
		switch {
		case op < 0.55 || len(keys) == 0:
			k := uint64(rng.Intn(10000))
			v := rng.Uint64()
			err := tree.Insert(k, v)
			if _, exists := oracle[k]; exists {
				if !errors.Is(err, ErrExists) {
					t.Fatalf("step %d: dup insert err = %v", step, err)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: insert: %v", step, err)
				}
				oracle[k] = v
				keys = append(keys, k)
			}
		case op < 0.75:
			i := rng.Intn(len(keys))
			k := keys[i]
			if err := tree.Delete(k); err != nil {
				t.Fatalf("step %d: delete %d: %v", step, k, err)
			}
			delete(oracle, k)
			keys = append(keys[:i], keys[i+1:]...)
		case op < 0.85:
			k := uint64(rng.Intn(10000))
			v, err := tree.Get(k)
			want, exists := oracle[k]
			if exists && (err != nil || v != want) {
				t.Fatalf("step %d: Get(%d) = %d, %v; want %d", step, k, v, err, want)
			}
			if !exists && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Get(%d) err = %v", step, k, err)
			}
		default:
			lo := uint64(rng.Intn(10000))
			hi := lo + uint64(rng.Intn(500))
			var got []uint64
			if err := tree.Range(lo, hi, func(k, _ uint64) bool {
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatalf("step %d: range: %v", step, err)
			}
			var want []uint64
			for k := range oracle {
				if k >= lo && k <= hi {
					want = append(want, k)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("step %d: range [%d, %d] got %d keys, want %d", step, lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: range order mismatch", step)
				}
			}
		}
		if step%1000 == 999 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tree.Len() != len(oracle) {
				t.Fatalf("step %d: Len %d != oracle %d", step, tree.Len(), len(oracle))
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllReleasesChunks(t *testing.T) {
	tree := newTestTree(t, 1024, 8)
	const n = 500
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range perm {
		if err := tree.Insert(uint64(k), uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range rand.New(rand.NewSource(8)).Perm(n) {
		if err := tree.Delete(uint64(k)); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Errorf("Len=%d Height=%d after deleting all", tree.Len(), tree.Height())
	}
	if got := tree.Region().Allocated(); got != 1 {
		t.Errorf("allocated chunks = %d, want 1 (root)", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	n := &Node{Level: 2, Next: -1, Entries: []Entry{{1, 10}, {5, 50}, {9, 90}}}
	var got Node
	if err := DecodeNode(n.Encode(nil), &got, 8); err != nil {
		t.Fatal(err)
	}
	if got.Level != 2 || got.Next != -1 || len(got.Entries) != 3 {
		t.Fatalf("got %+v", got)
	}
	leaf := &Node{Level: 0, Next: 42, Entries: []Entry{{7, 70}}}
	if err := DecodeNode(leaf.Encode(nil), &got, 8); err != nil {
		t.Fatal(err)
	}
	if got.Next != 42 {
		t.Errorf("next = %d", got.Next)
	}
}

func TestDecodeNodeRejectsGarbage(t *testing.T) {
	var n Node
	if err := DecodeNode(nil, &n, 8); !errors.Is(err, ErrCorruptNode) {
		t.Errorf("nil err = %v", err)
	}
	// Unsorted keys mark a stale chunk.
	bad := (&Node{Level: 0, Next: -1, Entries: []Entry{{5, 1}, {3, 2}}}).Encode(nil)
	if err := DecodeNode(bad, &n, 8); !errors.Is(err, ErrCorruptNode) {
		t.Errorf("unsorted err = %v", err)
	}
	big := (&Node{Level: 99}).Encode(nil)
	if err := DecodeNode(big, &n, 8); !errors.Is(err, ErrCorruptNode) {
		t.Errorf("level err = %v", err)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	reg, err := region.New(b.N/50+4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := New(reg, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	tree := newTestTree(b, 8192, 0)
	const n = 100_000
	for i := 0; i < n; i++ {
		if err := tree.Insert(uint64(i)*7, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Get(uint64(i%n) * 7); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckInvariantsCatchesMissingCacheSlot: every tree read is served
// from the node cache, so a reachable chunk missing from it is an
// incoherence CheckInvariants reports, not one it skips.
func TestCheckInvariantsCatchesMissingCacheSlot(t *testing.T) {
	tree := newTestTree(t, 256, 8)
	for k := uint64(0); k < 200; k++ {
		if err := tree.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	root, err := tree.readNode(tree.RootChunk())
	if err != nil {
		t.Fatal(err)
	}
	child := int(root.Entries[len(root.Entries)-1].Val)
	tree.cache[child] = nil
	if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "cache incoherent") {
		t.Fatalf("CheckInvariants with chunk %d missing from the cache = %v, want an incoherence error", child, err)
	}
}
