package rtree

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
)

// move relocates (from, ref) to to the way the server's MOVE does: in place
// when the tree allows it, otherwise — also when the source is absent — by
// inserting at the destination.
func move(t testing.TB, tree *Tree, from, to geo.Rect, ref uint64) (Relocation, OpStats) {
	t.Helper()
	how, st, err := tree.Relocate(from, to, ref)
	if err != nil {
		t.Fatalf("relocate ref %d: %v", ref, err)
	}
	if how != RelocateInPlace {
		ist, err := tree.Insert(to, ref)
		if err != nil {
			t.Fatalf("insert ref %d: %v", ref, err)
		}
		st.add(ist)
	}
	return how, st
}

// TestRelocateRandomizedAgainstModel drives 200k relocations — small steps
// that mostly stay inside their leaf, teleports that never do, both also on
// duplicated entries and on sources that do not exist — into a 50k-entry
// tree beside a brute-force multiset. Every 10k operations the invariants
// must hold (CheckInvariants demands parent rectangles exactly tight, so an
// in-place move that shrank a leaf must have tightened its ancestors) and a
// full scan must return exactly the model. (A tenth of the operations under
// the race detector; the reader hammer below is its test.)
func TestRelocateRandomizedAgainstModel(t *testing.T) {
	const loaded, every = 50_000, 10_000
	ops := 200_000
	if raceBuild {
		ops = 20_000
	}
	tree := newTestTree(t, loaded/10, 0)
	rng := rand.New(rand.NewSource(21))
	live := make([]Entry, loaded)
	for i := range live {
		live[i] = Entry{Rect: uniformRect(rng, 1e-4), Ref: uint64(i)}
	}
	if err := tree.BulkLoad(append([]Entry(nil), live...), 0); err != nil {
		t.Fatal(err)
	}
	model := make(map[Entry]int, loaded)
	for _, e := range live {
		model[e]++
	}
	// A few entries stored twice: a relocation moves one copy.
	for i := 0; i < 500; i++ {
		e := live[rng.Intn(loaded)]
		if _, err := tree.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
		model[e]++
	}
	check := func(done int) {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after %d ops: %v", done, err)
		}
		seen := make(map[Entry]int, len(model))
		if err := tree.visitRects(func(r geo.Rect, ref uint64) { seen[Entry{Rect: r, Ref: ref}]++ }); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(model) {
			t.Fatalf("after %d ops: scan holds %d distinct entries, model %d", done, len(seen), len(model))
		}
		for e, n := range model {
			if seen[e] != n {
				t.Fatalf("after %d ops: entry %v stored %d times, model %d", done, e, seen[e], n)
			}
		}
	}
	var count [RelocateInPlace + 1]int
	for i := 1; i <= ops; i++ {
		var from, to geo.Rect
		var ref uint64
		slot := -1
		switch p := rng.Float64(); {
		case p < 0.02: // a source that does not exist: MOVE is an upsert
			from, to, ref = uniformRect(rng, 1e-4), uniformRect(rng, 1e-4), uint64(loaded+i)
			live = append(live, Entry{Rect: to, Ref: ref})
		case p < 0.25: // teleport
			slot = rng.Intn(len(live))
			to = uniformRect(rng, 1e-4)
		default: // one step of a vehicle
			slot = rng.Intn(len(live))
			to = nudge(rng, live[slot].Rect, 4e-3)
		}
		if slot >= 0 {
			from, ref = live[slot].Rect, live[slot].Ref
			live[slot].Rect = to
			if model[Entry{from, ref}]--; model[Entry{from, ref}] == 0 {
				delete(model, Entry{from, ref})
			}
		}
		model[Entry{to, ref}]++
		how, _ := move(t, tree, from, to, ref)
		if (slot < 0) != (how == RelocateAbsent) {
			t.Fatalf("op %d: relocation %d of a source that exists=%v", i, how, slot >= 0)
		}
		count[how]++
		if i%every == 0 {
			check(i)
		}
	}
	if tree.Len() != len(live) {
		t.Fatalf("Len %d, want %d", tree.Len(), len(live))
	}
	t.Logf("absent %d, deleted %d, in place %d", count[RelocateAbsent], count[RelocateDeleted], count[RelocateInPlace])
	for how, n := range count {
		if n == 0 {
			t.Errorf("no relocation ended as outcome %d", how)
		}
	}
}

func TestRelocateInvalidRect(t *testing.T) {
	tree := newTestTree(t, 16, 0)
	ok := geo.Rect{MinX: 0.1, MaxX: 0.2, MinY: 0.1, MaxY: 0.2}
	bad := geo.Rect{MinX: 0.2, MaxX: 0.1, MinY: 0.1, MaxY: 0.2}
	if _, err := tree.Insert(ok, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]geo.Rect{{bad, ok}, {ok, bad}} {
		if _, _, err := tree.Relocate(tc[0], tc[1], 1); !errors.Is(err, ErrInvalidRect) {
			t.Errorf("Relocate(%v, %v) = %v, want ErrInvalidRect", tc[0], tc[1], err)
		}
	}
	if tree.Len() != 1 {
		t.Errorf("a refused relocation changed the tree: Len %d", tree.Len())
	}
}

// interiorEntry finds a leaf entry that touches none of its leaf's MBR
// sides, so moving or removing it leaves the MBR as it is, and returns it
// with the leaf's chunk and MBR.
func interiorEntry(t testing.TB, tree *Tree, entries []Entry) (e Entry, leaf int, mbr geo.Rect) {
	t.Helper()
	for _, e := range entries {
		p, _, err := tree.findLeaf(e.Rect, e.Ref)
		if err != nil || p == nil {
			t.Fatalf("findLeaf ref %d: %v", e.Ref, err)
		}
		d := p.depth() - 1
		mbr := p.nodes[d].MBR()
		if e.Rect.MinX > mbr.MinX && e.Rect.MaxX < mbr.MaxX && e.Rect.MinY > mbr.MinY && e.Rect.MaxY < mbr.MaxY {
			return e, p.ids[d], mbr
		}
	}
	t.Fatal("no entry strictly inside its leaf's MBR")
	return
}

// TestUnchangedMBRWritesOneNode: a write that changes a leaf but not the
// leaf's MBR publishes that leaf and nothing else — in particular not the
// root, whose version offloading clients hold a lease on. Both the in-place
// relocation and condense's stop rule are held to it.
func TestUnchangedMBRWritesOneNode(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tree, entries := bulkLoadedTree(t, rng, 0)
	rootVersion := func() uint64 {
		v, err := tree.reg.Version(tree.rootChunk)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	before := rootVersion()

	e, _, mbr := interiorEntry(t, tree, entries)
	cx, cy := mbr.Center()
	to := geo.Rect{MinX: cx, MaxX: cx + e.Rect.Width(), MinY: cy, MaxY: cy + e.Rect.Height()}
	how, st, err := tree.Relocate(e.Rect, to, e.Ref)
	if err != nil || how != RelocateInPlace {
		t.Fatalf("relocate inside the leaf: outcome %d, err %v", how, err)
	}
	if st.NodesWritten != 1 {
		t.Errorf("an in-place relocation that left the leaf's MBR unchanged wrote %d nodes, want 1", st.NodesWritten)
	}

	ok, st, err := tree.Delete(to, e.Ref)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if st.NodesWritten != 1 {
		t.Errorf("a delete that left the leaf's MBR unchanged wrote %d nodes, want 1", st.NodesWritten)
	}
	if after := rootVersion(); after != before {
		t.Errorf("root version moved %d → %d", before, after)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRelocateInPlaceReadersSeeOldOrNew: one-sided readers — raw chunk
// copies validated by DecodeChunk, as an offloading client makes them —
// race in-place relocations of one entry among four positions inside its
// leaf. Every image that validates must hold the entry at one of those
// positions exactly, never a rectangle mixed from two of them.
func TestRelocateInPlaceReadersSeeOldOrNew(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tree, entries := bulkLoadedTree(t, rng, 0)
	e, leaf, mbr := interiorEntry(t, tree, entries)
	w, h := e.Rect.Width(), e.Rect.Height()
	spots := []geo.Rect{e.Rect}
	for _, f := range []float64{0.3, 0.5, 0.7} {
		x, y := mbr.MinX+f*(mbr.Width()-w), mbr.MinY+f*(mbr.Height()-h)
		spots = append(spots, geo.Rect{MinX: x, MaxX: x + w, MinY: y, MaxY: y + h})
	}
	reg, maxEntries := tree.reg, tree.maxEntries

	var stop atomic.Bool
	var consistent atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw := make([]byte, reg.ChunkSize())
			var payload []byte
			var n Node
			for !stop.Load() {
				if err := reg.ReadChunkRaw(leaf, raw); err != nil {
					t.Error(err)
					return
				}
				var err error
				if payload, _, err = region.DecodeChunk(raw, payload); err != nil {
					continue // torn: the reader's retry, not this test's business
				}
				if err := DecodeNode(payload, &n, maxEntries); err != nil {
					t.Errorf("consistent image does not decode: %v", err)
					return
				}
				consistent.Add(1)
				found := false
				for _, ne := range n.Entries {
					if ne.Ref != e.Ref {
						continue
					}
					found = true
					known := false
					for _, s := range spots {
						known = known || ne.Rect.Equal(s)
					}
					if !known {
						t.Errorf("entry decoded at %v, none of its positions", ne.Rect)
						return
					}
				}
				if !found {
					t.Error("entry missing from a consistent image of its leaf")
					return
				}
			}
		}()
	}
	moves := 20_000
	if raceBuild {
		moves = 4_000
	}
	at := 0
	for i := 0; i < moves || consistent.Load() < 1_000; i++ {
		next := (at + 1 + rng.Intn(len(spots)-1)) % len(spots)
		how, _, err := tree.Relocate(spots[at], spots[next], e.Ref)
		if err != nil || how != RelocateInPlace {
			t.Errorf("move %d: outcome %d, err %v", i, how, err)
			break
		}
		at = next
	}
	stop.Store(true)
	wg.Wait()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRelocateBulkLoaded times the tree's share of a MOVE as the server
// runs it: a random object steps up to 1e-3 away, as in the moving-fleet
// workload, in place when its leaf still covers it.
func BenchmarkRelocateBulkLoaded(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tree, entries := bulkLoadedTree(b, rng, 0)
	written, inPlace := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &entries[rng.Intn(len(entries))]
		to := nudge(rng, e.Rect, 2e-3)
		how, st := move(b, tree, e.Rect, to, e.Ref)
		e.Rect = to
		written += st.NodesWritten
		if how == RelocateInPlace {
			inPlace++
		}
	}
	b.ReportMetric(float64(written)/float64(b.N), "nodes-written/op")
	b.ReportMetric(float64(inPlace)/float64(b.N), "in-place/op")
}
