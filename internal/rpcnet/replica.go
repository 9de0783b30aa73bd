// Shard replication, failover, and live resharding over real TCP
// (DESIGN.md §5.11).
//
// Replication is synchronous: a primary applies a write under the exclusive
// tree latch, stamps it with (epoch, seq) from its replica.State, appends it
// to the op-log, and streams it to every backup session before the latch
// drops and the client sees an acknowledgement. An acknowledged write is
// therefore already applied on every live backup, so promoting one after a
// primary failure loses nothing. The dirty-chunk tracker coalesces the
// chunks each mutation touched into merged spans — the write schedule an
// RDMA transport would post as one-sided span writes; over TCP the record
// itself carries the mutation and the spans feed telemetry.
//
// Fencing: every record carries the primary's epoch. A promoted backup is
// at a higher epoch, so a deposed primary's stream comes back StatusFenced;
// it demotes itself and fails the in-flight client write with the same
// status. Gaps (a backup that missed records after a resend race) come back
// StatusError with the backup's applied sequence; the primary re-sends the
// op-log suffix once.
//
// Live resharding is a three-step state machine: PrepareReshard snapshots
// the shard under the exclusive latch, computes the successor map by
// splitting this shard's cell, streams the entries the new cell owns to the
// new server, and arms dual-writes; CommitReshard publishes the successor
// map (hello, heartbeats, and MsgShardMap all serve it, so routers adopt it
// mid-run); DrainSplit deletes the moved entries locally once routers have
// converged. Requests block (not fail) during the prepare hold, and the old
// server keeps answering for the moved region until the drain, so no window
// exists in which either an old-map or a new-map router can miss data.
package rpcnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/wire"
)

// ReplicaConfig arms shard replication on a server.
type ReplicaConfig struct {
	// Primary makes this server accept client writes and stream them to
	// Backups; false starts it as a backup that rejects client writes with
	// StatusNotPrimary until promoted.
	Primary bool
	// Backups lists the addresses this primary replicates to (ignored on a
	// backup). Sessions are dialed lazily on the first write.
	Backups []string
	// Epoch is the shard's starting replication epoch (0 selects 1). All
	// replicas of a shard must start at the same epoch.
	Epoch uint64
}

// ackTimeout bounds one replication exchange; a backup that misses it is
// dropped from the stream.
const ackTimeout = 2 * time.Second

// replSess is one primary→backup replication session: a dedicated
// connection (the backup's hello and heartbeat pushes are skipped when
// reading acks) plus the backup's acknowledged high-water mark. Guarded by
// Server.replMu.
type replSess struct {
	addr  string
	conn  net.Conn
	acked uint64 // highest sequence the backup acknowledged
	dead  bool   // dropped after a transport error or a stuck gap
}

// ensureSessions dials the configured backups once, lazily. Callers hold
// replMu. A backup that cannot be dialed is recorded dead; replication
// degrades rather than blocking writes forever.
func (s *Server) ensureSessions() {
	if s.replDialed {
		return
	}
	s.replDialed = true
	for _, addr := range s.cfg.Replica.Backups {
		sess := &replSess{addr: addr}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			sess.dead = true
		} else {
			sess.conn = conn
		}
		s.replSess = append(s.replSess, sess)
	}
}

// closeReplSessions tears down the backup stream on Close.
func (s *Server) closeReplSessions() {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	for _, sess := range s.replSess {
		if sess.conn != nil {
			sess.conn.Close()
		}
	}
}

// replicate stamps one applied mutation, appends it to the op-log, and
// streams it to every live backup. The caller holds the exclusive tree
// latch, so sequence order matches apply order and the client's
// acknowledgement cannot outrun the backups. A fenced stream (a backup was
// promoted above us) is the only error surfaced: the deposed primary must
// fail the client write.
func (s *Server) replicate(op wire.MsgType, rect geo.Rect, ref uint64) error {
	epoch, seq, err := s.repl.Next()
	if err != nil {
		return err
	}
	rec := replica.Record{Epoch: epoch, Seq: seq, Op: op, Rect: rect, Ref: ref}
	s.rlog.Append(rec)
	return s.ship([]replica.Record{rec})
}

// ship streams records to every live backup session, in sequence order
// (replMu serializes senders). Dirty chunks accumulated since the last ship
// are drained into merged spans for the telemetry counters.
func (s *Server) ship(recs []replica.Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.ensureSessions()
	if s.dirty != nil {
		spans := s.dirty.TakeSpans()
		s.replSpans.Add(uint64(len(spans)))
		for _, sp := range spans {
			s.replSpanCh.Add(uint64(sp.Count))
		}
	}
	wr := make([]wire.ReplRecord, len(recs))
	for i, r := range recs {
		wr[i] = r.Wire()
	}
	var fenced error
	for _, sess := range s.replSess {
		if sess.dead {
			continue
		}
		if err := s.shipTo(sess, wr, recs[len(recs)-1].Seq); err != nil {
			if errors.Is(err, replica.ErrFenced) {
				fenced = err
				continue
			}
			sess.dead = true
		}
	}
	return fenced
}

// shipTo sends one record batch to a backup and folds its ack: OK advances
// the session's high-water mark, Fenced demotes this server, and a gap
// triggers exactly one op-log resend from the backup's applied sequence (a
// second gap marks the session dead — the backup is wedged).
func (s *Server) shipTo(sess *replSess, wr []wire.ReplRecord, lastSeq uint64) error {
	ack, err := s.replExchange(sess, wire.Replicate{ID: lastSeq, Records: wr})
	if err != nil {
		return err
	}
	switch ack.Status {
	case wire.StatusOK:
		sess.acked = ack.AppliedSeq
		s.replShipped.Add(uint64(len(wr)))
		return nil
	case wire.StatusFenced:
		s.repl.Fence(ack.Epoch)
		return fmt.Errorf("%w: backup %s at epoch %d", replica.ErrFenced, sess.addr, ack.Epoch)
	case wire.StatusError:
		s.replResends.Add(1)
		missing := s.rlog.Since(ack.AppliedSeq)
		mw := make([]wire.ReplRecord, len(missing))
		for i, r := range missing {
			mw[i] = r.Wire()
		}
		ack, err = s.replExchange(sess, wire.Replicate{ID: lastSeq, Records: mw})
		if err != nil {
			return err
		}
		switch ack.Status {
		case wire.StatusOK:
			sess.acked = ack.AppliedSeq
			s.replShipped.Add(uint64(len(mw)))
			return nil
		case wire.StatusFenced:
			s.repl.Fence(ack.Epoch)
			return fmt.Errorf("%w: backup %s at epoch %d", replica.ErrFenced, sess.addr, ack.Epoch)
		}
		return fmt.Errorf("rpcnet: backup %s stuck at seq %d after resend", sess.addr, ack.AppliedSeq)
	case wire.StatusUnavailable:
		return fmt.Errorf("rpcnet: backup %s unavailable", sess.addr)
	}
	return fmt.Errorf("rpcnet: unexpected repl ack status %d from %s", ack.Status, sess.addr)
}

// replExchange performs one replicate→ack round trip on a session,
// skipping the hello and heartbeat frames the backup server pushes on the
// same connection.
func (s *Server) replExchange(sess *replSess, msg wire.Replicate) (wire.ReplAck, error) {
	if err := sess.conn.SetDeadline(time.Now().Add(ackTimeout)); err != nil {
		return wire.ReplAck{}, err
	}
	defer sess.conn.SetDeadline(time.Time{})
	if err := writeFrame(sess.conn, msg.Encode(nil)); err != nil {
		return wire.ReplAck{}, err
	}
	var buf []byte
	for {
		var err error
		buf, err = readFrame(sess.conn, buf)
		if err != nil {
			return wire.ReplAck{}, err
		}
		typ, err := wire.PeekType(buf)
		if err != nil {
			return wire.ReplAck{}, err
		}
		if typ != wire.MsgReplAck {
			continue // hello or heartbeat push from the backup server
		}
		return wire.DecodeReplAck(buf)
	}
}

// replLag is the replication-lag gauge: the op-log high-water mark minus
// the slowest live backup's acknowledged sequence (0 with no live backups,
// i.e. nothing to lag behind).
func (s *Server) replLag() float64 {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	last := s.rlog.LastSeq()
	min := last
	live := false
	for _, sess := range s.replSess {
		if sess.dead {
			continue
		}
		live = true
		if sess.acked < min {
			min = sess.acked
		}
	}
	if !live {
		return 0
	}
	return float64(last - min)
}

// handleReplicate applies an incoming record batch on a backup and answers
// with the backup's (epoch, applied) so the primary can detect fencing and
// resume across gaps. Records at or below the applied sequence (resend
// overlap) are skipped silently.
func (s *Server) handleReplicate(sc *srvConn, frame []byte) error {
	msg, err := wire.DecodeReplicate(frame)
	if err != nil {
		return err
	}
	ack := wire.ReplAck{ID: msg.ID, Status: wire.StatusOK}
	if s.repl == nil {
		ack.Status = wire.StatusError
		return sc.send(ack.Encode(nil))
	}
	if s.core.Killed() {
		ack.Status = wire.StatusUnavailable
		ack.Epoch, ack.AppliedSeq = s.repl.Snapshot()
		return sc.send(ack.Encode(nil))
	}
	s.latch.Lock()
	for _, wr := range msg.Records {
		rec := replica.FromWire(wr)
		if _, aerr := s.core.ApplyRecord(exec{s: s, sc: sc}, rec); aerr != nil {
			var gap *replica.GapError
			if errors.As(aerr, &gap) && gap.Got <= gap.Applied {
				continue // duplicate from a resend overlap
			}
			if errors.Is(aerr, replica.ErrFenced) {
				ack.Status = wire.StatusFenced
			} else {
				ack.Status = wire.StatusError // gap: primary resends from AppliedSeq
			}
			break
		}
		s.rlog.Append(rec)
	}
	s.latch.Unlock()
	ack.Epoch, ack.AppliedSeq = s.repl.Snapshot()
	return sc.send(ack.Encode(nil))
}

// Live resharding phases, exposed on catfish_server_reshard_state.
const (
	reshardIdle      int64 = 0
	reshardDualWrite int64 = 1
	reshardCommitted int64 = 2
)

// splitState is an armed reshard: the successor map, the new cell's index,
// and the session writes are mirrored on until the drain.
type splitState struct {
	m       *shard.Map
	newIdx  int
	newAddr string
	cli     *Client
}

// reshardBatch is the entry-stream granularity of PrepareReshard.
const reshardBatch = 128

// everything covers the whole plane for snapshot scans.
var everything = geo.Rect{
	MinX: math.Inf(-1), MinY: math.Inf(-1),
	MaxX: math.Inf(1), MaxY: math.Inf(1),
}

// PrepareReshard splits this shard's cell in two and streams the entries
// the new cell owns to the server at newAddr, all under one exclusive latch
// hold so no concurrent write can slip between the snapshot and the
// dual-write arming. On return the successor map exists but is not yet
// served: client requests arriving during the hold blocked on the latch and
// then completed against the old map, and every subsequent write that lands
// in the new cell is mirrored to the new server. Call CommitReshard to
// publish the map and DrainSplit once routers have converged.
func (s *Server) PrepareReshard(newAddr string) (*shard.Map, error) {
	sm := s.servedShardMap()
	if sm == nil {
		return nil, errors.New("rpcnet: reshard on an unsharded server")
	}
	if len(sm.addrs) != sm.m.K() {
		return nil, errors.New("rpcnet: reshard needs the shard address table")
	}
	if s.core.Killed() {
		return nil, replica.ErrUnavailable
	}
	if s.split.Load() != nil {
		return nil, errors.New("rpcnet: reshard already in progress")
	}
	cli, err := dialClient(newAddr, ClientConfig{})
	if err != nil {
		return nil, err
	}
	s.latch.Lock()
	defer s.latch.Unlock()
	var entries []rtree.Entry
	if _, err := s.tree.SearchShared(everything, func(r geo.Rect, ref uint64) bool {
		entries = append(entries, rtree.Entry{Rect: r, Ref: ref})
		return true
	}); err != nil {
		cli.Close()
		return nil, err
	}
	nm, err := sm.m.SplitCell(int(s.shardIdx.Load()), entries)
	if err != nil {
		cli.Close()
		return nil, err
	}
	newIdx := nm.K() - 1
	var ops []BatchOp
	var results []BatchResult
	var moved uint64
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		results = cli.ExecBatch(ops, results)
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
		moved += uint64(len(ops))
		ops = ops[:0]
		return nil
	}
	for _, e := range entries {
		if nm.Owner(e.Rect) != newIdx {
			continue
		}
		ops = append(ops, BatchOp{Type: wire.MsgInsert, Rect: e.Rect, Ref: e.Ref})
		if len(ops) == reshardBatch {
			if err := flush(); err != nil {
				cli.Close()
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		cli.Close()
		return nil, err
	}
	s.reshardMoved.Add(moved)
	s.split.Store(&splitState{m: nm, newIdx: newIdx, newAddr: newAddr, cli: cli})
	s.reshardPhase.Store(reshardDualWrite)
	return nm, nil
}

// forwardSplit mirrors one applied write to the reshard target when a split
// is armed and the successor map assigns the rect to the new cell. Called
// under the exclusive latch, after local apply and replication — the
// dual-write keeps the new server exact while both maps are live. A delete
// the new server never saw (inserted before the snapshot, moved by it) is
// not an error.
func (s *Server) forwardSplit(op wire.MsgType, rect geo.Rect, ref uint64) error {
	sp := s.split.Load()
	if sp == nil || sp.m.Owner(rect) != sp.newIdx {
		return nil
	}
	switch op {
	case wire.MsgInsert:
		return sp.cli.Insert(rect, ref)
	case wire.MsgDelete:
		if err := sp.cli.Delete(rect, ref); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	return nil
}

// CommitReshard publishes the prepared successor map: the hello, heartbeat
// MapVersion, and MsgShardMap responses all switch to it, so routers
// observe the version bump and adopt the new map (and dial the new shard)
// mid-run. The moved entries stay on this server — dual-written — until
// DrainSplit, so routers still on the old map lose nothing.
func (s *Server) CommitReshard() (*shard.Map, error) {
	sp := s.split.Load()
	if sp == nil {
		return nil, errors.New("rpcnet: no reshard prepared")
	}
	sm := s.servedShardMap()
	addrs := append(append([]string(nil), sm.addrs...), sp.newAddr)
	s.served.Store(&servedMap{m: sp.m, addrs: addrs})
	s.reshardPhase.Store(reshardCommitted)
	return sp.m, nil
}

// DrainSplit ends the dual-write window: the entries the new cell owns are
// deleted locally (replicated to this shard's backups like any other
// write, so a later failover does not resurrect them) and the mirror
// session closes. Call only after every router has adopted the committed
// map; until then this server must keep answering for the moved region.
func (s *Server) DrainSplit() error {
	sp := s.split.Swap(nil)
	if sp == nil {
		return nil
	}
	s.latch.Lock()
	var doomed []rtree.Entry
	_, err := s.tree.SearchShared(everything, func(r geo.Rect, ref uint64) bool {
		if sp.m.Owner(r) == sp.newIdx {
			doomed = append(doomed, rtree.Entry{Rect: r, Ref: ref})
		}
		return true
	})
	if err == nil {
		for _, e := range doomed {
			if _, _, derr := s.tree.Delete(e.Rect, e.Ref); derr != nil {
				err = derr
				break
			}
			if s.repl != nil && s.repl.Primary() {
				// Best effort: a fenced stream here means we were deposed
				// mid-drain; the new primary re-drains from its own state.
				_ = s.replicate(wire.MsgDelete, e.Rect, e.Ref)
			}
		}
	}
	s.latch.Unlock()
	s.reshardPhase.Store(reshardIdle)
	if cerr := sp.cli.Close(); err == nil {
		err = cerr
	}
	return err
}

// AdoptShardMap installs a shard identity on a running server — how the
// reshard target joins the deployment: it starts unsharded, receives the
// committed successor map, and begins advertising it so routers that
// bootstrap from it (or cross-check hellos) see a consistent view.
func (s *Server) AdoptShardMap(m *shard.Map, idx int, addrs []string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if idx < 0 || idx >= m.K() {
		return fmt.Errorf("rpcnet: adopt shard %d of %d", idx, m.K())
	}
	if len(addrs) != 0 && len(addrs) != m.K() {
		return fmt.Errorf("rpcnet: adopt with %d addrs for %d shards", len(addrs), m.K())
	}
	s.shardIdx.Store(int32(idx))
	s.served.Store(&servedMap{m: m, addrs: addrs})
	return nil
}

// SplitShard grows a live deployment by one shard: it starts an empty server
// with listen, streams shard i's peeled half to it (PrepareReshard), gives it
// the successor map, commits the split on srvs[i] and publishes the map to
// every other server. srvs and addrs are the deployment in shard order, each
// server already serving a map with the address table. A failure up to the
// commit closes the new server. On success the caller owns the new server,
// adopts the grown address table, and drains srvs[i] (DrainSplit) once its
// routers have adopted the returned map.
func SplitShard(srvs []*Server, addrs []string, i int, listen func() (*Server, error)) (*Server, *shard.Map, []string, error) {
	if i < 0 || i >= len(srvs) {
		return nil, nil, nil, fmt.Errorf("rpcnet: split of unknown shard %d", i)
	}
	srv, err := listen()
	if err != nil {
		return nil, nil, nil, err
	}
	newAddr := srv.Addr().String()
	nm, err := srvs[i].PrepareReshard(newAddr)
	if err == nil {
		addrs = append(append([]string(nil), addrs...), newAddr)
		err = srv.AdoptShardMap(nm, nm.K()-1, addrs)
	}
	if err == nil {
		_, err = srvs[i].CommitReshard()
	}
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	for j, other := range srvs {
		if j != i {
			if err := other.AdoptShardMap(nm, j, addrs); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return srv, nm, addrs, nil
}
