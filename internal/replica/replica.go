// Package replica is the availability core shared by both transports: the
// sequenced op-log a shard primary streams to its backups, the per-server
// replication state machine (epoch fencing, gap detection, promotion), and
// the successor-election helper routers use during failover.
//
// The protocol (DESIGN.md §5.11) follows the RDMA LSM index-replication
// recipe: every applied index mutation becomes a Record stamped with the
// shard's epoch and a dense sequence number. A backup applies records in
// sequence order; a gap makes it ask the primary to resume from its last
// applied sequence, and a record from a lower epoch is fenced — the sender
// is a deposed zombie. Promotion bumps the epoch, so exactly one lineage of
// writes survives a failover.
package replica

import (
	"errors"
	"fmt"
	"sync"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/wire"
)

// Sentinel errors shared across transports, so routers can failover on
// errors.Is checks regardless of which stack produced them.
var (
	// ErrFenced means an operation carried an epoch below the server's
	// current one: the sender lost a failover election and must stop.
	ErrFenced = errors.New("replica: fenced: epoch is stale")
	// ErrNotPrimary means a client write reached an unpromoted backup.
	ErrNotPrimary = errors.New("replica: not primary")
	// ErrUnavailable means the server is up but refusing service.
	ErrUnavailable = errors.New("replica: server unavailable")
)

// GapError reports a sequence discontinuity: the backup has applied
// everything through Applied and received Got instead of Applied+1.
type GapError struct {
	Applied uint64
	Got     uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("replica: sequence gap: applied %d, got %d", e.Applied, e.Got)
}

// Record is one sequenced index mutation (Op is wire.MsgInsert or
// wire.MsgDelete).
type Record struct {
	Epoch uint64
	Seq   uint64
	Op    wire.MsgType
	Rect  geo.Rect
	Ref   uint64
}

// Wire converts the record to its wire encoding struct.
func (r Record) Wire() wire.ReplRecord {
	return wire.ReplRecord{Epoch: r.Epoch, Seq: r.Seq, Op: r.Op, Rect: r.Rect, Ref: r.Ref}
}

// FromWire converts a decoded wire record.
func FromWire(w wire.ReplRecord) Record {
	return Record{Epoch: w.Epoch, Seq: w.Seq, Op: w.Op, Rect: w.Rect, Ref: w.Ref}
}

// Log is the primary's in-memory op-log: an append-only sequence of records
// a backup can be re-sent from after a gap. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	recs []Record
}

// Append adds a record to the log.
func (l *Log) Append(r Record) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// LastSeq returns the sequence number of the newest record (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return 0
	}
	return l.recs[len(l.recs)-1].Seq
}

// Since returns a copy of every record with Seq > seq, in order.
func (l *Log) Since(seq uint64) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Sequences are dense and ascending, so binary-search by offset.
	lo, hi := 0, len(l.recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.recs[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(l.recs) {
		return nil
	}
	return append([]Record(nil), l.recs[lo:]...)
}

// State is one server's replication state machine. The zero value is not
// useful; construct with NewState.
type State struct {
	mu      sync.Mutex
	epoch   uint64
	applied uint64
	primary bool
}

// NewState returns a state at the given epoch. A primary assigns sequence
// numbers; a backup validates them.
func NewState(epoch uint64, primary bool) *State {
	if epoch == 0 {
		epoch = 1
	}
	return &State{epoch: epoch, primary: primary}
}

// Epoch returns the current epoch.
func (s *State) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Applied returns the highest applied sequence number.
func (s *State) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Primary reports whether this server currently accepts client writes.
func (s *State) Primary() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// Next stamps the next mutation on the primary: it increments the applied
// sequence and returns (epoch, seq). Callers must hold the tree latch so
// sequence order matches apply order. Fails with ErrNotPrimary on a backup
// — a deposed primary stops acknowledging writes the moment it learns of
// the new epoch.
func (s *State) Next() (epoch, seq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.primary {
		return 0, 0, ErrNotPrimary
	}
	s.applied++
	return s.epoch, s.applied, nil
}

// Promote moves the state to epoch as primary. It is idempotent: an epoch
// at or below the current one (with the server already primary) is a no-op,
// and a promotion never lowers the epoch. It reports whether the state
// changed.
func (s *State) Promote(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epoch || (epoch == s.epoch && s.primary) {
		return false
	}
	s.epoch = epoch
	s.primary = true
	return true
}

// Fence records that a higher epoch exists: the server demotes itself to
// backup at that epoch. Used when a primary's replication is rejected by a
// promoted backup. Lower epochs are ignored.
func (s *State) Fence(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.epoch {
		s.epoch = epoch
		s.primary = false
	}
}

// Accept validates one incoming record's (epoch, seq) on a backup and, on
// success, advances the applied sequence. The caller applies the mutation
// under the same latch. Errors:
//
//   - ErrFenced: the record's epoch is below the backup's — zombie sender.
//   - GapError: the sequence is not applied+1; the sender should resend
//     from Applied.
//
// A record from a higher epoch adopts that epoch (the new primary's first
// record after promotion) and demotes this server to backup.
func (s *State) Accept(epoch, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epoch {
		return fmt.Errorf("%w: record epoch %d, current %d", ErrFenced, epoch, s.epoch)
	}
	if epoch > s.epoch {
		s.epoch = epoch
		s.primary = false
	}
	if seq != s.applied+1 {
		return &GapError{Applied: s.applied, Got: seq}
	}
	s.applied = seq
	return nil
}

// Snapshot returns (epoch, applied) atomically — the pair heartbeats carry.
func (s *State) Snapshot() (epoch, applied uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch, s.applied
}

// PickSuccessor elects the failover target among a shard's candidates:
// the healthy candidate with the highest applied sequence, ties broken by
// lowest index (deterministic across routers). Returns -1 when no healthy
// candidate exists.
func PickSuccessor(applied []uint64, healthy []bool) int {
	best := -1
	for i := range applied {
		if i < len(healthy) && !healthy[i] {
			continue
		}
		if best == -1 || applied[i] > applied[best] {
			best = i
		}
	}
	return best
}

// StatusError maps a wire response status to the replica sentinel it
// encodes, or nil when the status carries no replication meaning. Both
// transports' clients route through this so errors.Is works identically.
func StatusError(status uint8) error {
	switch status {
	case wire.StatusUnavailable:
		return ErrUnavailable
	case wire.StatusFenced:
		return ErrFenced
	case wire.StatusNotPrimary:
		return ErrNotPrimary
	}
	return nil
}

// StatusOf is StatusError's inverse on the server side: the wire status
// that makes a client decode err back into the same sentinel. An error with
// no replication meaning is a plain StatusError; no error is StatusOK.
func StatusOf(err error) uint8 {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, ErrNotPrimary):
		return wire.StatusNotPrimary
	case errors.Is(err, ErrFenced):
		return wire.StatusFenced
	case errors.Is(err, ErrUnavailable):
		return wire.StatusUnavailable
	}
	return wire.StatusError
}

// Failover reports whether err is a condition a router should respond to by
// promoting a backup (server refusing service, deposed primary, or an
// unpromoted backup holding the active slot).
func Failover(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrFenced) ||
		errors.Is(err, ErrNotPrimary)
}
