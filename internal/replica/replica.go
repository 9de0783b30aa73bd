// Package replica is the availability core shared by both transports: the
// primary's half of replication (Primary: the sequenced op-log, the ship to
// each backup through its Peer, gap resend, fence-on-ack and the lag), the
// per-server replication state machine (epoch fencing, gap detection,
// promotion), and the successor-election helper routers use during failover.
// The backup's half, applying a record batch, is proto.Serve.ApplyRecords.
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
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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
// wire.MsgDelete): the op-log holds what the wire carries.
type Record = wire.ReplRecord

// Log is the primary's in-memory op-log: the records a backup can be re-sent
// after a gap, ascending by sequence. It is not safe for concurrent use.
type Log struct {
	recs []Record
}

// Append adds a record to the log.
func (l *Log) Append(r Record) { l.recs = append(l.recs, r) }

// after returns the index of the first record with Seq > seq.
func (l *Log) after(seq uint64) int {
	return sort.Search(len(l.recs), func(i int) bool { return l.recs[i].Seq > seq })
}

// Since returns a copy of every record with Seq > seq, in order.
func (l *Log) Since(seq uint64) []Record {
	if i := l.after(seq); i < len(l.recs) {
		return append([]Record(nil), l.recs[i:]...)
	}
	return nil
}

// Trim drops every record with Seq <= seq.
func (l *Log) Trim(seq uint64) { l.recs = append(l.recs[:0], l.recs[l.after(seq):]...) }

// Peer is one backup as its primary reaches it, over either transport:
// Exchange ships a record batch and returns the backup's ack. An error means
// the exchange was lost.
type Peer interface {
	Exchange(recs []Record) (wire.ReplAck, error)
}

// Primary is the primary half of replication, one for both transports: it
// stamps every applied mutation, keeps the op-log, and ships each record to
// every live backup. Every replicated server has one; a backup's only logs
// what the backup applies until a promotion makes it ship. Callers serialise
// Replicate and Append — the exclusive tree latch does — while Lag and the
// counters may be read at any time.
type Primary struct {
	state *State
	log   Log
	// mu guards each peer's acked and dead for Lag. It is never held across
	// an Exchange, which may park a simulated process.
	mu      sync.Mutex
	peers   []*peer
	shipped atomic.Uint64 // records in exchanges a backup acknowledged
	resends atomic.Uint64 // gap-triggered op-log resends
}

// peer is one backup and what its primary knows of it.
type peer struct {
	Peer
	acked uint64 // highest sequence the backup acknowledged
	dead  bool   // dropped after a lost exchange, a refusal or a stuck gap
}

// NewPrimary returns a server's replication core over its state, with no
// backup yet.
func NewPrimary(state *State) *Primary { return &Primary{state: state} }

// State returns the server's replication state machine.
func (p *Primary) State() *State { return p.state }

// Attach adds a backup to ship to. Its mark starts at 0, so a server keeps
// every record it applies until it first ships: a backup started with peers
// needs that log once promoted.
func (p *Primary) Attach(to Peer) {
	p.mu.Lock()
	p.peers = append(p.peers, &peer{Peer: to})
	p.mu.Unlock()
}

// Close closes every backup connection a peer holds (an io.Closer).
func (p *Primary) Close() {
	p.mu.Lock()
	peers := p.peers
	p.mu.Unlock()
	for _, pe := range peers {
		if c, ok := pe.Peer.(io.Closer); ok {
			c.Close()
		}
	}
}

// live reports whether any backup is still shipped to.
func (p *Primary) live() bool {
	for _, pe := range p.peers {
		if !pe.dead {
			return true
		}
	}
	return false
}

// Append logs a record this server applied, so it can be resent to a backup
// that misses it. With no live backup there is nobody to resend to, and
// nothing is kept.
func (p *Primary) Append(rec Record) {
	if p.live() {
		p.log.Append(rec)
	}
}

// Replicate stamps one applied mutation with (epoch, seq), logs it and ships
// it to every live backup, then trims the log through the lowest live ack (a
// backup's applied sequence never falls below its ack, so every resend can
// still be served). Only a fence is an error, and the write must fail: a
// backup was promoted past this server. A backup that loses an exchange,
// refuses the stream or stays behind a resend is dropped, and the write is
// still acknowledged.
func (p *Primary) Replicate(op wire.MsgType, r geo.Rect, ref uint64) error {
	epoch, seq, err := p.state.Next()
	if err != nil {
		return err
	}
	rec := Record{Epoch: epoch, Seq: seq, Op: op, Rect: r, Ref: ref}
	p.Append(rec)
	var fenced error
	for _, pe := range p.peers {
		if pe.dead {
			continue
		}
		acked, err := p.ship(pe, rec)
		p.mu.Lock()
		switch {
		case err == nil:
			pe.acked = acked
		case errors.Is(err, ErrFenced):
			fenced = err
		default:
			pe.dead = true
		}
		p.mu.Unlock()
	}
	p.log.Trim(p.lowestAck(math.MaxUint64))
	return fenced
}

// lowestAck returns the lowest ack among live backups, ceil with none.
func (p *Primary) lowestAck(ceil uint64) uint64 {
	for _, pe := range p.peers {
		if !pe.dead {
			ceil = min(ceil, pe.acked)
		}
	}
	return ceil
}

// ship sends rec to one backup and returns the sequence it acknowledged. A
// gap — an error ack, or an OK one short of rec — is answered with exactly
// one resend of the op-log after the backup's applied sequence; a fenced ack
// demotes this server.
func (p *Primary) ship(pe *peer, rec Record) (uint64, error) {
	batch := []Record{rec}
	ack, err := pe.Exchange(batch)
	if err == nil && (ack.Status == wire.StatusError || ack.Status == wire.StatusOK && ack.AppliedSeq < rec.Seq) {
		p.resends.Add(1)
		batch = p.log.Since(ack.AppliedSeq)
		ack, err = pe.Exchange(batch)
	}
	switch {
	case err != nil:
		return 0, err
	case ack.Status == wire.StatusFenced:
		p.state.Fence(ack.Epoch)
		return 0, fmt.Errorf("%w: backup at epoch %d", ErrFenced, ack.Epoch)
	case ack.Status != wire.StatusOK:
		return 0, fmt.Errorf("replica: backup answered status %d at seq %d", ack.Status, ack.AppliedSeq)
	case ack.AppliedSeq < rec.Seq:
		return 0, fmt.Errorf("replica: backup stuck at seq %d after a resend", ack.AppliedSeq)
	}
	p.shipped.Add(uint64(len(batch)))
	return ack.AppliedSeq, nil
}

// Lag is the replication-lag gauge: the applied sequence minus the slowest
// live backup's ack (0 with no live backup, nothing to lag behind).
func (p *Primary) Lag() float64 {
	_, last := p.state.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(last - p.lowestAck(last))
}

// Shipped counts the records in exchanges a backup acknowledged.
func (p *Primary) Shipped() uint64 { return p.shipped.Load() }

// Resends counts the gap-triggered op-log resends.
func (p *Primary) Resends() uint64 { return p.resends.Load() }

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
// A record from a higher epoch that is next in sequence adopts that epoch
// (the new primary's first record after promotion) and demotes this server
// to backup. One past a gap adopts nothing, so the resend that fills the
// gap — older records, at the epoch they were written in — is not fenced.
func (s *State) Accept(epoch, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epoch {
		return fmt.Errorf("%w: record epoch %d, current %d", ErrFenced, epoch, s.epoch)
	}
	if seq != s.applied+1 {
		return &GapError{Applied: s.applied, Got: seq}
	}
	if epoch > s.epoch {
		s.epoch = epoch
		s.primary = false
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
