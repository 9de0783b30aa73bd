// Shard replication, failover, and live resharding over real TCP
// (DESIGN.md §5.11).
//
// Replication runs in the transport-neutral core (replica.Primary ships,
// proto.Serve.ApplyRecords applies); this file only carries its record
// batches and acks over a socket.
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
	"sync"
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
	// Backups lists the addresses this server replicates to while it is
	// primary, from the start or once promoted. Each is dialed on its first
	// exchange.
	Backups []string
	// Epoch is the shard's starting replication epoch (0 selects 1). All
	// replicas of a shard must start at the same epoch.
	Epoch uint64
}

// ackTimeout bounds one replication exchange; a backup that misses it is
// dropped from the stream.
const ackTimeout = 2 * time.Second

// sockPeer is one backup as a primary reaches it over TCP: a dedicated
// connection, dialed on the first exchange, on which the backup's hello and
// heartbeat pushes are skipped while an ack is awaited. The replication core
// (replica.Primary) does everything else.
type sockPeer struct {
	addr   string
	mu     sync.Mutex // held for a whole exchange, so Close waits one out
	conn   net.Conn
	closed bool
	buf    []byte
}

// Exchange ships one record batch and reads until the backup's ack.
func (p *sockPeer) Exchange(recs []replica.Record) (wire.ReplAck, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if p.closed {
			return wire.ReplAck{}, net.ErrClosed
		}
		conn, err := net.Dial("tcp", p.addr)
		if err != nil {
			return wire.ReplAck{}, err
		}
		p.conn = conn
	}
	if err := p.conn.SetDeadline(time.Now().Add(ackTimeout)); err != nil {
		return wire.ReplAck{}, err
	}
	if err := writeFrame(p.conn, wire.Replicate{Records: recs}.Encode(nil)); err != nil {
		return wire.ReplAck{}, err
	}
	for {
		var err error
		if p.buf, err = readFrame(p.conn, p.buf); err != nil {
			return wire.ReplAck{}, err
		}
		if typ, err := wire.PeekType(p.buf); err != nil || typ == wire.MsgReplAck {
			return wire.DecodeReplAck(p.buf)
		}
	}
}

// Close tears the connection down; a later exchange fails.
func (p *sockPeer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn == nil {
		return nil
	}
	return p.conn.Close()
}

// handleReplicate is the socket side of a backup: it decodes a record batch,
// applies it through the server core under the exclusive latch, and answers
// with the ack the core returns.
func (s *Server) handleReplicate(sc *srvConn, frame []byte) error {
	msg, err := wire.DecodeReplicate(frame)
	if err != nil {
		return err
	}
	s.latch.Lock()
	ack, _, _ := s.core.ApplyRecords(exec{s: s, sc: sc}, msg.Records)
	s.latch.Unlock()
	ack.ID = msg.ID
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
			if s.repl != nil {
				// Best effort: a fenced stream here means we were deposed
				// mid-drain; the new primary re-drains from its own state.
				_ = s.repl.Replicate(wire.MsgDelete, e.Rect, e.Ref)
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
