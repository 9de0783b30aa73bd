package proto

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/wire"
)

// fakeExec is the least server a Serve runs in: no latch (the test is one
// goroutine), inserts straight into the tree, every propagated record kept —
// or, with repl set, replicated through it — the last accounted OpStats and
// reply status remembered.
type fakeExec struct {
	tree    *rtree.Tree
	records []replica.Record
	refuse  wire.MsgType // Propagate of this op answers StatusUnavailable
	repl    *replica.Primary
	st      rtree.OpStats
	status  uint8
}

func (x *fakeExec) RLock()   {}
func (x *fakeExec) RUnlock() {}
func (x *fakeExec) Lock()    {}
func (x *fakeExec) Unlock()  {}

func (x *fakeExec) Insert(r geo.Rect, ref uint64) (rtree.OpStats, error) {
	return x.tree.Insert(r, ref)
}

func (x *fakeExec) Propagate(op wire.MsgType, r geo.Rect, ref uint64) uint8 {
	if op == x.refuse {
		return wire.StatusUnavailable
	}
	if x.repl != nil {
		return replica.StatusOf(x.repl.Replicate(op, r, ref))
	}
	x.records = append(x.records, replica.Record{Op: op, Rect: r, Ref: ref})
	return wire.StatusOK
}

func (x *fakeExec) Account(_ wire.MsgType, _ int, st rtree.OpStats, _ bool) { x.st = st }

func (x *fakeExec) Reply(frames []byte) error {
	resp, err := wire.DecodeResponse(frames[4:])
	if err != nil {
		return err
	}
	x.status = resp.Status
	return nil
}

func loadTree(t *testing.T, entries []rtree.Entry) *rtree.Tree {
	t.Helper()
	reg, err := region.New(len(entries)/20+64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.New(reg, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(append([]rtree.Entry(nil), entries...), 0); err != nil {
		t.Fatal(err)
	}
	return tree
}

func newServeRig(t *testing.T, entries []rtree.Entry) (*Serve[*fakeExec], *fakeExec) {
	t.Helper()
	x := &fakeExec{tree: loadTree(t, entries)}
	s, err := NewServe[*fakeExec](ServeConfig{Tree: x.tree})
	if err != nil {
		t.Fatal(err)
	}
	return s, x
}

func (x *fakeExec) move(t *testing.T, s *Serve[*fakeExec], m scenario.Move) {
	t.Helper()
	req := wire.Request{Type: wire.MsgMove, ID: 1, Rect: m.From, Rect2: m.To, Ref: m.Ref}
	if err := s.Request(x, req); err != nil {
		t.Fatal(err)
	}
}

// contents returns everything tree stores, in a canonical order.
func contents(t *testing.T, tree *rtree.Tree) []rtree.Entry {
	t.Helper()
	all, _, err := tree.SearchCollect(geo.NewRect(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(all, func(a, b rtree.Entry) int {
		return cmp.Or(cmp.Compare(a.Ref, b.Ref), cmp.Compare(a.Rect.MinX, b.Rect.MinX), cmp.Compare(a.Rect.MinY, b.Rect.MinY))
	})
	return all
}

// TestMoveFleetInPlace streams one fleet tick through the server core as MOVEs.
// The fleet is the benchmark's moving-fleet one (200k vehicles, steps up to
// 0.002) at a tenth of the vehicles and √10 times the step, which keeps a
// step the same fraction of a leaf's width: at least four MOVEs in five must then
// stay inside their leaf and be counted as such. Whichever way the tree took
// a MOVE, the backup's view is a delete and an insert record; a tree fed
// those records, and the fleet's own positions, must hold exactly what the
// primary holds — the two may differ in shape, never in content.
func TestMoveFleetInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fleet := scenario.NewMovingObjects(rng, scenario.MovingConfig{N: 20_000, Speed: 0.002 * math.Sqrt(10)})
	seed := fleet.Seed()
	s, x := newServeRig(t, seed)
	backup := loadTree(t, seed)

	moves := fleet.Tick(rng, nil)
	total := len(moves)
	for _, m := range moves {
		x.move(t, s, m)
		if x.status != wire.StatusOK {
			t.Fatalf("MOVE of ref %d answered status %d", m.Ref, x.status)
		}
	}
	snap := s.Counters.Snapshot()
	if snap.Moves != uint64(total) {
		t.Errorf("Moves counter %d, want %d", snap.Moves, total)
	}
	share := float64(snap.MovesInPlace) / float64(total)
	t.Logf("%d of %d MOVEs in place (%.1f %%)", snap.MovesInPlace, total, 100*share)
	if share < 0.8 {
		t.Errorf("in-place share %.3f, want at least 0.8", share)
	}
	if err := x.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if len(x.records) != 2*total {
		t.Fatalf("%d records propagated for %d MOVEs, want a delete and an insert each", len(x.records), total)
	}
	for _, rec := range x.records {
		var err error
		if rec.Op == wire.MsgDelete {
			var found bool
			if found, _, err = backup.Delete(rec.Rect, rec.Ref); err == nil && !found {
				t.Fatalf("delete record of ref %d names an entry the backup does not hold", rec.Ref)
			}
		} else {
			_, err = backup.Insert(rec.Rect, rec.Ref)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := fleet.Seed() // the fleet's positions now
	slices.SortFunc(want, func(a, b rtree.Entry) int { return cmp.Compare(a.Ref, b.Ref) })
	if got := contents(t, x.tree); !slices.Equal(got, want) {
		t.Error("primary's contents differ from the fleet's positions")
	}
	if got := contents(t, backup); !slices.Equal(got, want) {
		t.Error("backup's contents differ from the fleet's positions")
	}
}

// TestMoveTeleportOneDescent: a MOVE whose destination lies outside its leaf
// reads exactly the nodes a Delete of the source plus an Insert of the
// destination read — the source is looked up once, not once by the in-place
// check and again by the delete — and a MOVE of a missing source is the
// plain insert it always was.
func TestMoveTeleportOneDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	entries := make([]rtree.Entry, 50_000)
	for i := range entries {
		entries[i] = rtree.Entry{Rect: testRect(rng, 1e-4), Ref: uint64(i)}
	}
	s, x := newServeRig(t, entries)
	twin := loadTree(t, entries)
	for i, e := range entries[:300] {
		m := scenario.Move{From: e.Rect, To: testRect(rng, 1e-4), Ref: e.Ref}
		if i%10 == 9 {
			m.From.MinX = math.Nextafter(m.From.MinX, 0) // no such entry
		}
		x.records = x.records[:0]
		x.move(t, s, m)
		found, want, err := twin.Delete(m.From, m.Ref)
		if err != nil {
			t.Fatal(err)
		}
		ist, err := twin.Insert(m.To, m.Ref)
		if err != nil {
			t.Fatal(err)
		}
		want.NodesRead += ist.NodesRead
		want.NodesWritten += ist.NodesWritten
		if x.status != wire.StatusOK || x.st != want {
			t.Fatalf("MOVE %d (source present=%v): status %d, stats %+v; delete + insert did %+v", i, found, x.status, x.st, want)
		}
		wantRecords := 1 // the insert
		if found {
			wantRecords = 2 // the delete before it
		}
		if len(x.records) != wantRecords {
			t.Fatalf("MOVE %d (source present=%v) propagated %d records, want %d", i, found, len(x.records), wantRecords)
		}
	}
	if n := s.Counters.MovesInPlace.Load(); n != 0 {
		t.Errorf("%d teleports counted as in place", n)
	}
}

// TestMoveInPlacePropagateRefused pins what a refused propagation leaves
// behind: the in-place MOVE has already happened, so the object is at its
// destination (a delete + reinsert MOVE leaves it absent instead), the
// refusal is the MOVE's status, and the insert record is not sent.
func TestMoveInPlacePropagateRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	fleet := scenario.NewMovingObjects(rng, scenario.MovingConfig{N: 20_000, Speed: 1e-4})
	s, x := newServeRig(t, fleet.Seed())
	x.refuse = wire.MsgDelete
	for _, m := range fleet.Tick(rng, nil) {
		x.move(t, s, m)
		if x.status != wire.StatusUnavailable || len(x.records) != 0 {
			t.Fatalf("status %d with %d records sent, want the refusal and none", x.status, len(x.records))
		}
		if s.Counters.MovesInPlace.Load() == 0 {
			continue // this step left its leaf
		}
		at, _, err := x.tree.SearchCollect(m.To)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(at, rtree.Entry{Rect: m.To, Ref: m.Ref}) {
			t.Error("object is not at its destination")
		}
		return
	}
	t.Fatal("no step stayed inside its leaf")
}
