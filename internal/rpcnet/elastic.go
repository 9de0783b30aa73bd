// Live resharding over real TCP (DESIGN.md §5.11), and Elastic, the one
// deployment that runs it (§5.12).
//
// A split is a three-step state machine on the shard being split:
// prepareReshard snapshots the shard under the exclusive latch, computes the
// successor map by splitting this shard's cell, streams the entries the new
// cell owns to the new server, and arms dual-writes; commitReshard publishes
// the successor map (hello, heartbeats, and MsgShardMap all serve it, so
// routers adopt it mid-run); drainSplit deletes the moved entries locally
// once routers have converged. Requests block (not fail) during the prepare
// hold, and the old server keeps answering for the moved region until the
// drain, so no window exists in which either an old-map or a new-map router
// can miss data.
package rpcnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/wire"
)

// Elastic is a live sharded deployment that grows by splitting shards: the
// shard map, the servers in shard order and their address table, under one
// mutex. It is an autoscale.Scraper and an autoscale.Actuator, so a
// controller drives it directly.
type Elastic struct {
	listen func() (*Server, error)
	wait   func(stop <-chan struct{}, version uint64)

	mu       sync.Mutex
	m        *shard.Map
	srvs     []*Server
	addrs    []string
	closed   bool
	drainErr error // the first failed drain's, returned by Close

	stop   chan struct{} // closed by Close: pending drain waits return
	drains sync.WaitGroup
}

// NewElastic takes over srvs, the running servers of m in shard order, and
// installs m and the address table on every one. listen starts the empty
// server each split grows into. wait is the one rule a caller chooses: after
// a split commits, it blocks until the caller's routers have had their
// chance to adopt the map of the given version, or until stop closes, and
// then the split shard drains.
func NewElastic(m *shard.Map, srvs []*Server, listen func() (*Server, error),
	wait func(stop <-chan struct{}, version uint64)) (*Elastic, error) {
	if len(srvs) != m.K() {
		return nil, fmt.Errorf("rpcnet: %d servers for %d shards", len(srvs), m.K())
	}
	addrs := make([]string, len(srvs))
	for i, srv := range srvs {
		if srv.rtree == nil {
			return nil, fmt.Errorf("rpcnet: shard %d serves no R-tree: %w", i, proto.ErrIndex)
		}
		addrs[i] = srv.Addr().String()
	}
	for i, srv := range srvs {
		if err := srv.adoptShardMap(m, i, addrs); err != nil {
			return nil, err
		}
	}
	return &Elastic{
		listen: listen, wait: wait,
		m: m, srvs: append([]*Server(nil), srvs...), addrs: addrs,
		stop: make(chan struct{}),
	}, nil
}

// Map returns the deployment's current shard map.
func (e *Elastic) Map() *shard.Map {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m
}

// Addrs returns the servers' addresses in shard order.
func (e *Elastic) Addrs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.addrs...)
}

// Scrape implements autoscale.Scraper in-process: each server's smoothed
// heartbeat utilizations, the values its catfish_server_utilization and
// catfish_server_tx_utilization gauges render.
func (e *Elastic) Scrape() ([]autoscale.Sample, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]autoscale.Sample, len(e.srvs))
	for i, srv := range e.srvs {
		out[i] = autoscale.Sample{
			Shard:  i,
			Util:   srv.core.Counters.Util.Load(),
			TXUtil: srv.core.Counters.TXUtil.Load(),
		}
	}
	return out, nil
}

// Split implements autoscale.Actuator: it grows the deployment by one shard.
// It starts an empty server, streams shard i's peeled half to it, gives it
// the successor map, commits the split on shard i and publishes the map to
// every other server; a failure up to the commit closes the new server. A
// tracked goroutine then runs the caller's wait and drains shard i, unless
// Close came first.
func (e *Elastic) Split(i int) (int, error) {
	// Shards are only ever added, so an index valid here stays valid; the
	// caller's listen runs outside the lock.
	if k := e.Map().K(); i < 0 || i >= k {
		return k, fmt.Errorf("rpcnet: split of unknown shard %d", i)
	}
	srv, err := e.listen()
	if err != nil {
		return e.Map().K(), err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		srv.Close()
		return e.m.K(), net.ErrClosed
	}
	old := e.srvs[i]
	addrs := append(append([]string(nil), e.addrs...), srv.Addr().String())
	nm, err := old.prepareReshard(srv.Addr().String())
	if err == nil {
		err = srv.adoptShardMap(nm, nm.K()-1, addrs)
	}
	if err == nil {
		err = old.commitReshard()
	}
	if err != nil {
		srv.Close()
		return e.m.K(), err
	}
	for j, other := range e.srvs {
		if j != i {
			if err := other.adoptShardMap(nm, j, addrs); err != nil {
				return e.m.K(), err
			}
		}
	}
	e.m, e.srvs, e.addrs = nm, append(e.srvs, srv), addrs
	e.drains.Add(1)
	go func() {
		defer e.drains.Done()
		e.wait(e.stop, nm.Version)
		select {
		case <-e.stop:
			// Closing: the servers are going away, so nothing needs draining.
		default:
			// A failed drain leaves moved entries on both servers, which
			// scatters deduplicate; Close reports it.
			if err := old.drainSplit(); err != nil {
				e.mu.Lock()
				if e.drainErr == nil {
					e.drainErr = err
				}
				e.mu.Unlock()
			}
		}
	}()
	return nm.K(), nil
}

// Close cancels the drains still waiting, waits out one already running,
// and closes every server. It returns the first failed drain's error, else
// the first close error.
func (e *Elastic) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.stop)
	srvs := e.srvs
	e.mu.Unlock()
	e.drains.Wait()
	e.mu.Lock()
	err := e.drainErr
	e.mu.Unlock()
	for _, srv := range srvs {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}
	return err
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

// reshardBatch is the entry-stream granularity of prepareReshard.
const reshardBatch = 128

// everything covers the whole plane for snapshot scans.
var everything = geo.Rect{
	MinX: math.Inf(-1), MinY: math.Inf(-1),
	MaxX: math.Inf(1), MaxY: math.Inf(1),
}

// prepareReshard splits this shard's cell in two and streams the entries
// the new cell owns to the server at newAddr, all under one exclusive latch
// hold so no concurrent write can slip between the snapshot and the
// dual-write arming. On return the successor map exists but is not yet
// served: client requests arriving during the hold blocked on the latch and
// then completed against the old map, and every subsequent write that lands
// in the new cell is mirrored to the new server.
func (s *Server) prepareReshard(newAddr string) (*shard.Map, error) {
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
	if _, err := s.rtree.Search(everything, func(r geo.Rect, ref uint64) bool {
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

// commitReshard publishes the prepared successor map: the hello, heartbeat
// MapVersion, and MsgShardMap responses all switch to it, so routers
// observe the version bump and adopt the new map (and dial the new shard)
// mid-run. The moved entries stay on this server — dual-written — until
// drainSplit, so routers still on the old map lose nothing.
func (s *Server) commitReshard() error {
	sp := s.split.Load()
	if sp == nil {
		return errors.New("rpcnet: no reshard prepared")
	}
	sm := s.servedShardMap()
	s.served.Store(&servedMap{m: sp.m, addrs: append(append([]string(nil), sm.addrs...), sp.newAddr)})
	s.reshardPhase.Store(reshardCommitted)
	return nil
}

// drainSplit ends the dual-write window: the entries the new cell owns are
// deleted locally (replicated to this shard's backups like any other
// write, so a later failover does not resurrect them) and the mirror
// session closes. Call only after every router has adopted the committed
// map; until then this server must keep answering for the moved region.
//
// The split disarms under the latch. Disarmed before it, a write already
// holding the latch would skip its forward and then lose its entry to the
// deletes here: acknowledged, and on neither server.
func (s *Server) drainSplit() error {
	s.latch.Lock()
	sp := s.split.Swap(nil)
	if sp == nil {
		s.latch.Unlock()
		return nil
	}
	var doomed []rtree.Entry
	_, err := s.rtree.Search(everything, func(r geo.Rect, ref uint64) bool {
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

// adoptShardMap installs a validated shard identity on a running server —
// how a fresh server joins the deployment: it starts unsharded, receives the
// map, and begins advertising it so routers that bootstrap from it (or
// cross-check hellos) see a consistent view.
func (s *Server) adoptShardMap(m *shard.Map, idx int, addrs []string) error {
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
