package replica

import (
	"errors"
	"fmt"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

func TestLogSince(t *testing.T) {
	var l Log
	if got := l.Since(0); got != nil {
		t.Fatalf("empty log Since(0) = %v", got)
	}
	for i := uint64(1); i <= 10; i++ {
		l.Append(Record{Epoch: 1, Seq: i, Op: wire.MsgInsert, Ref: i})
	}
	for _, tc := range []struct {
		since uint64
		first uint64
		n     int
	}{
		{0, 1, 10}, {1, 2, 9}, {5, 6, 5}, {9, 10, 1}, {10, 0, 0}, {99, 0, 0},
	} {
		got := l.Since(tc.since)
		if len(got) != tc.n {
			t.Fatalf("Since(%d): %d records, want %d", tc.since, len(got), tc.n)
		}
		if tc.n > 0 && got[0].Seq != tc.first {
			t.Fatalf("Since(%d): first seq %d, want %d", tc.since, got[0].Seq, tc.first)
		}
	}
	l.Trim(4)
	if got := l.Since(0); len(got) != 6 || got[0].Seq != 5 {
		t.Fatalf("after Trim(4): Since(0) = %v, want seqs 5..10", got)
	}
	l.Trim(99)
	if got := l.Since(0); got != nil {
		t.Fatalf("after Trim(99): Since(0) = %v", got)
	}
}

func TestStateSequencing(t *testing.T) {
	s := NewState(1, true)
	for i := uint64(1); i <= 3; i++ {
		ep, seq, err := s.Next()
		if err != nil || ep != 1 || seq != i {
			t.Fatalf("Next = (%d, %d, %v), want (1, %d, nil)", ep, seq, err, i)
		}
	}
	b := NewState(1, false)
	if _, _, err := b.Next(); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("backup Next err = %v, want ErrNotPrimary", err)
	}
}

func TestAcceptFencingAndGaps(t *testing.T) {
	b := NewState(2, false)
	if err := b.Accept(1, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale epoch: err = %v, want ErrFenced", err)
	}
	if err := b.Accept(2, 1); err != nil {
		t.Fatalf("seq 1: %v", err)
	}
	// Gap: seq 3 with only 1 applied.
	err := b.Accept(2, 3)
	var gap *GapError
	if !errors.As(err, &gap) || gap.Applied != 1 || gap.Got != 3 {
		t.Fatalf("gap err = %v", err)
	}
	if err := b.Accept(2, 2); err != nil {
		t.Fatalf("seq 2: %v", err)
	}
	// Higher epoch adopts and demotes.
	b.Promote(3)
	if !b.Primary() {
		t.Fatal("promote failed")
	}
	if err := b.Accept(4, 3); err != nil {
		t.Fatalf("higher-epoch record: %v", err)
	}
	if b.Primary() || b.Epoch() != 4 {
		t.Fatalf("after higher-epoch record: primary=%v epoch=%d", b.Primary(), b.Epoch())
	}
}

func TestPromoteIdempotent(t *testing.T) {
	s := NewState(1, false)
	if !s.Promote(2) {
		t.Fatal("first promote should change state")
	}
	if s.Promote(2) {
		t.Fatal("same-epoch re-promote should be a no-op")
	}
	if s.Promote(1) {
		t.Fatal("lower-epoch promote should be a no-op")
	}
	if s.Epoch() != 2 || !s.Primary() {
		t.Fatalf("epoch=%d primary=%v", s.Epoch(), s.Primary())
	}
	// A demoted server can be re-promoted at the same epoch it was fenced
	// to only via a higher epoch.
	s.Fence(3)
	if s.Primary() {
		t.Fatal("fence should demote")
	}
	if !s.Promote(3) {
		t.Fatal("promote at fenced epoch should succeed (not primary yet)")
	}
}

func TestPickSuccessor(t *testing.T) {
	for _, tc := range []struct {
		applied []uint64
		healthy []bool
		want    int
	}{
		{[]uint64{5, 7, 7}, []bool{true, true, true}, 1},
		{[]uint64{5, 7, 9}, []bool{true, true, false}, 1},
		{[]uint64{5, 7, 9}, []bool{false, false, false}, -1},
		{[]uint64{0, 0}, []bool{true, true}, 0},
		{nil, nil, -1},
	} {
		if got := PickSuccessor(tc.applied, tc.healthy); got != tc.want {
			t.Fatalf("PickSuccessor(%v, %v) = %d, want %d", tc.applied, tc.healthy, got, tc.want)
		}
	}
}

func TestStatusError(t *testing.T) {
	if err := StatusError(wire.StatusOK); err != nil {
		t.Fatalf("StatusOK → %v", err)
	}
	if err := StatusError(wire.StatusUnavailable); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unavailable → %v", err)
	}
	if err := StatusError(wire.StatusFenced); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced → %v", err)
	}
	if err := StatusError(wire.StatusNotPrimary); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("not-primary → %v", err)
	}
	for _, err := range []error{ErrUnavailable, ErrFenced, ErrNotPrimary} {
		if !Failover(err) {
			t.Fatalf("Failover(%v) = false", err)
		}
	}
	if Failover(errors.New("other")) {
		t.Fatal("Failover(other) = true")
	}
}

// StatusOf and StatusError are inverses on the replication statuses, also
// through wrapping; everything else is a plain server error with no sentinel.
func TestStatusOfRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status uint8
	}{
		{nil, wire.StatusOK},
		{ErrNotPrimary, wire.StatusNotPrimary},
		{ErrFenced, wire.StatusFenced},
		{ErrUnavailable, wire.StatusUnavailable},
		{fmt.Errorf("backup 3: %w", ErrFenced), wire.StatusFenced},
		{&GapError{Applied: 2, Got: 9}, wire.StatusError},
		{errors.New("backup stuck"), wire.StatusError},
	} {
		got := StatusOf(tc.err)
		if got != tc.status {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.status)
		}
		back := StatusError(got)
		if sentinel := StatusError(tc.status); sentinel != nil && !errors.Is(tc.err, back) {
			t.Errorf("StatusError(StatusOf(%v)) = %v, not the error's sentinel", tc.err, back)
		} else if sentinel == nil && back != nil {
			t.Errorf("StatusError(%d) = %v, want nil", got, back)
		}
	}
	for _, status := range []uint8{wire.StatusNotPrimary, wire.StatusFenced, wire.StatusUnavailable} {
		if got := StatusOf(StatusError(status)); got != status {
			t.Errorf("StatusOf(StatusError(%d)) = %d", status, got)
		}
	}
}

func TestRecordWireRoundTrip(t *testing.T) {
	rec := Record{Epoch: 3, Seq: 42, Op: wire.MsgDelete,
		Rect: geo.Rect{MinX: 1, MaxX: 2, MinY: 3, MaxY: 4}, Ref: 99}
	enc := wire.Replicate{ID: 7, Records: []Record{rec}}.Encode(nil)
	dec, err := wire.DecodeReplicate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 7 || len(dec.Records) != 1 {
		t.Fatalf("decoded %+v", dec)
	}
	if got := dec.Records[0]; got != rec {
		t.Fatalf("round trip: got %+v, want %+v", got, rec)
	}
}

// memBackup is the least backup a Primary ships to: the state machine's
// checks and nothing else. drop makes it lose the next record it is sent.
type memBackup struct {
	st   *State
	drop bool
}

func (b *memBackup) Exchange(recs []Record) (wire.ReplAck, error) {
	ack := wire.ReplAck{Status: wire.StatusOK}
	for _, r := range recs {
		if b.drop {
			b.drop = false
			continue
		}
		if err := b.st.Accept(r.Epoch, r.Seq); err != nil {
			var gap *GapError
			if errors.As(err, &gap) && gap.Got <= gap.Applied {
				continue
			}
			ack.Status = StatusOf(err)
			break
		}
	}
	ack.Epoch, ack.AppliedSeq = b.st.Snapshot()
	return ack, nil
}

// TestPrimaryTrimsLog: at R = 2 the op-log never holds more than the record
// in flight, however many writes pass; a record lost after the log was
// trimmed is still resent from it and the backup converges; a server with no
// live backup keeps nothing, and a backup started with a peer list keeps
// what it applies until it first ships.
func TestPrimaryTrimsLog(t *testing.T) {
	pr := NewPrimary(NewState(1, true))
	b := &memBackup{st: NewState(1, false)}
	pr.Attach(b)
	r := geo.Rect{MaxX: 1, MaxY: 1}
	for i := uint64(1); i <= 10_000; i++ {
		if err := pr.Replicate(wire.MsgInsert, r, i); err != nil {
			t.Fatal(err)
		}
		if n := len(pr.log.recs); n > 1 {
			t.Fatalf("after write %d the log holds %d records", i, n)
		}
	}
	b.drop = true
	if err := pr.Replicate(wire.MsgDelete, r, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.st.Applied(); got != 10_001 || pr.Resends() != 1 || pr.Lag() != 0 {
		t.Fatalf("after a lost record: backup at %d, %d resends, lag %v; want 10001, 1, 0", got, pr.Resends(), pr.Lag())
	}

	alone := NewPrimary(NewState(1, true))
	for i := uint64(1); i <= 5; i++ {
		if err := alone.Replicate(wire.MsgInsert, r, i); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(alone.log.recs); n != 0 {
		t.Fatalf("a primary with no backup logged %d records", n)
	}

	standby := NewPrimary(NewState(1, false))
	c := &memBackup{st: NewState(1, false)}
	standby.Attach(c)
	for i := uint64(1); i <= 5; i++ {
		if err := standby.State().Accept(1, i); err != nil {
			t.Fatal(err)
		}
		standby.Append(Record{Epoch: 1, Seq: i, Op: wire.MsgInsert, Rect: r, Ref: i})
	}
	if n := len(standby.log.recs); n != 5 {
		t.Fatalf("a backup with a peer list logged %d of 5 records", n)
	}
	standby.State().Promote(2)
	if err := standby.Replicate(wire.MsgInsert, r, 6); err != nil {
		t.Fatal(err)
	}
	if got, n := c.st.Applied(), len(standby.log.recs); got != 6 || n != 0 {
		t.Fatalf("after promotion: its peer at %d (want 6), %d records logged (want 0)", got, n)
	}
}

// TestPrimaryGaugesConcurrent reads the lag and the counters, as a metrics
// scrape does, while writes ship.
func TestPrimaryGaugesConcurrent(t *testing.T) {
	pr := NewPrimary(NewState(1, true))
	pr.Attach(&memBackup{st: NewState(1, false)})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= 2000; i++ {
			if err := pr.Replicate(wire.MsgInsert, geo.Rect{MaxX: 1, MaxY: 1}, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			if pr.Lag() != 0 || pr.Shipped() != 2000 {
				t.Fatalf("after the writes: lag %v, shipped %d; want 0, 2000", pr.Lag(), pr.Shipped())
			}
			return
		default:
			if lag := pr.Lag(); lag > 1 {
				t.Fatalf("lag %v with one write in flight", lag)
			}
			_ = pr.Resends()
		}
	}
}

// Epoch returns the current epoch.
func (s *State) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}
