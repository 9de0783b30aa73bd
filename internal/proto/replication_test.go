package proto

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/wire"
)

// checkApply is the contract of one ApplyRecords call on backup b, which
// stood at (epoch0, applied0) with repl0 records applied before it: the ack
// reports where the backup now stands; its applied sequence never falls;
// it rises one record at a time through records of the batch taken in
// order — none past a gap, none from an epoch below the backup's — and the
// mutations among those records are what it counts as applied.
func checkApply(b *Serve[*fakeExec], recs []replica.Record, epoch0, applied0, repl0 uint64, ack wire.ReplAck) error {
	epoch, applied := b.cfg.Replica.State().Snapshot()
	switch {
	case ack.Epoch != epoch || ack.AppliedSeq != applied:
		return fmt.Errorf("ack says (epoch %d, applied %d), the backup is at (%d, %d)", ack.Epoch, ack.AppliedSeq, epoch, applied)
	case applied < applied0:
		return fmt.Errorf("applied seq fell from %d to %d", applied0, applied)
	}
	next, e, mutations := applied0+1, epoch0, uint64(0)
	for _, r := range recs {
		if next > applied {
			break
		}
		if r.Seq != next {
			continue
		}
		if r.Epoch < e {
			return fmt.Errorf("applied seq %d of epoch %d below the backup's epoch %d", r.Seq, r.Epoch, e)
		}
		e = r.Epoch
		if r.Op == wire.MsgInsert || r.Op == wire.MsgDelete {
			mutations++
		}
		next++
	}
	if next <= applied {
		return fmt.Errorf("applied seq rose from %d to %d past a gap: the batch holds no seq %d in order", applied0, applied, next)
	}
	if got := b.Counters.ReplRecords.Load() - repl0; got != mutations {
		return fmt.Errorf("applied seq rose from %d to %d through %d mutations, but %d records were applied", applied0, applied, mutations, got)
	}
	return nil
}

// applyChecked runs ApplyRecords on backup b and checks its contract.
func applyChecked(b *Serve[*fakeExec], x *fakeExec, recs []replica.Record) (wire.ReplAck, error) {
	epoch0, applied0 := b.cfg.Replica.State().Snapshot()
	repl0 := b.Counters.ReplRecords.Load()
	ack, _, _ := b.ApplyRecords(x, recs)
	return ack, checkApply(b, recs, epoch0, applied0, repl0, ack)
}

func newBackup(t *testing.T, entries []rtree.Entry) (*Serve[*fakeExec], *fakeExec) {
	t.Helper()
	x := &fakeExec{tree: loadTree(t, entries)}
	b, err := NewServe[*fakeExec](ServeConfig{Tree: x.tree, Replica: replica.NewPrimary(replica.NewState(1, false))})
	if err != nil {
		t.Fatal(err)
	}
	return b, x
}

var errAckLost = errors.New("ack lost")

// faultyBackup is a backup Serve behind a seeded fault wrapper on Exchange.
// Per exchange it may drop a record from the batch (a gap), put an old batch
// in front of it (duplicates), and lose the ack after the apply; at a seeded
// exchange it is killed, and — the first backup only — at another it is
// promoted past the primary (a fence). It mirrors the primary's drop rule to
// know whether it is still shipped to, and keeps the first broken contract.
type faultyBackup struct {
	serve *Serve[*fakeExec]
	x     *fakeExec
	rng   *rand.Rand

	calls, killAt, promoteAt int
	sent                     [][]replica.Record

	promoted, dead bool
	resending      bool
	want           uint64 // the sequence a pending resend must reach
	failure        error
}

func (b *faultyBackup) Exchange(recs []replica.Record) (wire.ReplAck, error) {
	b.calls++
	want := b.want
	if n := len(recs); n > 0 {
		want = recs[n-1].Seq
	}
	switch b.calls {
	case b.killAt:
		b.serve.Kill()
	case b.promoteAt:
		b.promoted = true
		b.serve.Request(b.x, wire.Request{Type: wire.MsgPromote, Ref: 2}) //nolint:errcheck // fakeExec.Reply
	}
	batch := recs
	if roll := b.rng.Intn(100); roll < 8 && len(b.sent) > 0 {
		batch = append(slices.Clone(b.sent[b.rng.Intn(len(b.sent))]), batch...)
	}
	dropRate := 6 // percent; less on a resend, which a drop leaves stuck
	if b.resending {
		dropRate = 1
	}
	if b.rng.Intn(100) < dropRate && len(batch) > 0 {
		i := b.rng.Intn(len(batch))
		batch = append(batch[:i:i], batch[i+1:]...)
	}
	b.sent = append(b.sent, recs)
	ack, err := applyChecked(b.serve, b.x, batch)
	if err != nil && b.failure == nil {
		b.failure = fmt.Errorf("exchange %d: %w", b.calls, err)
	}
	behind := ack.Status == wire.StatusError || ack.Status == wire.StatusOK && ack.AppliedSeq < want
	lost := b.rng.Intn(1000) == 0
	switch {
	case lost || ack.Status == wire.StatusUnavailable || b.resending && behind:
		b.dead = true
	case !b.resending && behind:
		b.want = want
	}
	b.resending = !b.resending && behind
	if lost {
		return wire.ReplAck{}, errAckLost
	}
	return ack, nil
}

// exploreReplication drives one seeded run: a primary Serve replicating
// through a real replica.Primary to two faulty backups, under random
// inserts, deletes and MOVEs, then checks the outcome against a model of the
// writes the primary acknowledged.
func exploreReplication(t *testing.T, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]rtree.Entry, 300)
	model := map[uint64]geo.Rect{}
	for i := range entries {
		entries[i] = rtree.Entry{Rect: testRect(rng, 0.01), Ref: uint64(i)}
		model[entries[i].Ref] = entries[i].Rect
	}
	pr := replica.NewPrimary(replica.NewState(1, true))
	px := &fakeExec{tree: loadTree(t, entries), repl: pr}
	ps, err := NewServe[*fakeExec](ServeConfig{Tree: px.tree, Replica: pr})
	if err != nil {
		t.Fatal(err)
	}
	backups := make([]*faultyBackup, 2)
	for i := range backups {
		serve, x := newBackup(t, entries)
		b := &faultyBackup{serve: serve, x: x, rng: rand.New(rand.NewSource(seed*31 + int64(i))),
			killAt: 1 + rng.Intn(1200), promoteAt: -1}
		if i == 0 {
			b.promoteAt = 1 + rng.Intn(600)
		}
		backups[i] = b
		pr.Attach(b)
	}

	var lastAcked uint64
	var fenced *wire.Request
	next := uint64(len(entries))
	for step := 0; step < 300; step++ {
		req := wire.Request{ID: uint64(step + 1), Rect: testRect(rng, 0.01)}
		switch roll := rng.Intn(10); {
		case roll < 4:
			req.Type, req.Ref = wire.MsgInsert, next
			next++
		case roll < 7:
			req.Type, req.Ref = wire.MsgDelete, uint64(rng.Int63n(int64(next)))
			if r, ok := model[req.Ref]; ok && rng.Intn(4) != 0 {
				req.Rect = r
			}
		default:
			req.Type, req.Ref = wire.MsgMove, uint64(rng.Int63n(int64(next)))
			req.Rect2 = req.Rect
			if r, ok := model[req.Ref]; ok {
				req.Rect = r
			}
		}
		if err := ps.Request(px, req); err != nil {
			t.Fatal(err)
		}
		switch px.status {
		case wire.StatusOK:
			switch req.Type {
			case wire.MsgInsert:
				model[req.Ref] = req.Rect
			case wire.MsgDelete:
				delete(model, req.Ref)
			default:
				model[req.Ref] = req.Rect2
			}
			lastAcked = pr.State().Applied()
		case wire.StatusFenced:
			fenced = &req
		}
	}

	for i, b := range backups {
		if b.failure != nil {
			return fmt.Errorf("backup %d: %w", i, b.failure)
		}
	}
	want := make([]rtree.Entry, 0, len(model))
	for ref, r := range model {
		want = append(want, rtree.Entry{Rect: r, Ref: ref})
	}
	slices.SortFunc(want, func(a, b rtree.Entry) int { return cmp.Compare(a.Ref, b.Ref) })
	// The fenced write failed, but a MOVE ships as a delete and an insert:
	// the delete may have reached the backup that fenced its insert.
	half := want
	if fenced != nil && fenced.Type == wire.MsgMove {
		half = slices.DeleteFunc(slices.Clone(want), func(e rtree.Entry) bool { return e.Ref == fenced.Ref })
	}
	primary := contents(t, px.tree)
	if fenced == nil && !slices.Equal(primary, want) {
		return fmt.Errorf("the primary holds %d entries, its acknowledged writes leave %d", len(primary), len(want))
	}
	for i, b := range backups {
		if b.dead || b.serve.Killed() {
			continue
		}
		got, applied := contents(t, b.x.tree), b.serve.cfg.Replica.State().Applied()
		switch {
		case applied < lastAcked:
			return fmt.Errorf("backup %d is live at seq %d, but seq %d was acknowledged", i, applied, lastAcked)
		case b.promoted && !slices.Equal(got, want) && !slices.Equal(got, half):
			return fmt.Errorf("promoted backup %d holds %d entries, the acknowledged writes leave %d", i, len(got), len(want))
		case fenced == nil && !slices.Equal(got, primary):
			return fmt.Errorf("live backup %d holds %d entries, the primary %d", i, len(got), len(primary))
		}
	}
	return nil
}

// TestReplicationExplorer runs the replication core — a primary's
// replica.Primary shipping to two backups' Serve.ApplyRecords — under seeded
// faults on every exchange: lost records, replayed batches, lost acks, a
// killed backup and one promoted mid-stream. Every exchange must keep the
// backup's contract (checkApply: applied-seq monotone, never past a gap,
// never below the backup's epoch). At the end every backup still shipped to
// must have every acknowledged write, a promoted one exactly those; and
// unless the primary was fenced, the primary and every backup still shipped
// to hold the same entries. The fenced write may have stopped half way — a
// MOVE's delete shipped, its insert fenced — so the promoted backup may
// lack that MOVE's object, and a fenced primary is no reference.
func TestReplicationExplorer(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := exploreReplication(t, seed); err != nil {
				t.Fatalf("seed %d: %v; repro: go test ./internal/proto/ -run 'TestReplicationExplorer/seed=%d$'", seed, err, seed)
			}
		})
	}
}

// FuzzApplyRecords feeds arbitrary record batches to a backup's
// ApplyRecords: nothing may panic, every call keeps checkApply's contract,
// and the tree stays a valid R-tree. An input is a sequence of batches, each
// a count byte (mod 8) and that many 8-byte records: epoch (mod 3), seq,
// op (insert, delete, or a query — no mutation), x, y, width, height, ref
// (mod 32).
func FuzzApplyRecords(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	entries := make([]rtree.Entry, 64)
	for i := range entries {
		entries[i] = rtree.Entry{Rect: testRect(rng, 0.01), Ref: uint64(i)}
	}
	ops := []wire.MsgType{wire.MsgInsert, wire.MsgDelete, wire.MsgSearch}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, x := newBackup(t, entries)
		for len(data) > 0 {
			n := int(data[0] % 8)
			data = data[1:]
			var recs []replica.Record
			for ; n > 0 && len(data) >= 8; n-- {
				r := data[:8]
				data = data[8:]
				minX, minY := float64(r[3])/256, float64(r[4])/256
				recs = append(recs, replica.Record{
					Epoch: uint64(r[0] % 3),
					Seq:   uint64(r[1]),
					Op:    ops[int(r[2])%len(ops)],
					Rect:  geo.NewRect(minX, minY, minX+float64(r[5])/2560, minY+float64(r[6])/2560),
					Ref:   uint64(r[7] % 32),
				})
			}
			if _, err := applyChecked(b, x, recs); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
