// Elastic, the TCP deployment that grows by live splits (DESIGN.md §5.11,
// §5.12), holds only a split's socket legs: the new server, the session it
// is fed on, the address table and the drain rule. The split itself is the
// server core's (proto.Serve).
package rpcnet

import (
	"fmt"
	"net"
	"sync"

	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/proto"
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
		if srv.tree.Kind() != wire.IndexRTree {
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
// It starts an empty server, prepares the split of shard i over a session
// to it, gives it the successor map, commits the split on shard i and
// publishes the map to every other server; a failure up to the commit
// closes the new server. A tracked goroutine then runs the caller's wait
// and drains shard i, unless Close came first.
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
	var nm *shard.Map
	sess, err := dialClient(srv.Addr().String(), ClientConfig{})
	if err != nil {
		srv.Close()
		return e.m.K(), err
	}
	err = old.core.Prepare(exec{s: old}, func(es []rtree.Entry) (proto.Partition, error) {
		m, err := e.m.SplitCell(i, es)
		nm = m
		return servedShard{m, addrs}, err
	}, func(_ exec, ops []BatchOp, res []BatchResult) []BatchResult { return sess.ExecBatch(ops, res) })
	if err == nil {
		err = srv.adoptShardMap(nm, nm.K()-1, addrs)
	}
	if err == nil {
		err = old.core.Commit()
	}
	if err != nil {
		sess.Close()
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
		defer sess.Close()
		e.wait(e.stop, nm.Version)
		select {
		case <-e.stop:
			// Closing: the servers are going away, so nothing needs draining.
		default:
			// A failed drain leaves moved entries on both servers, which
			// scatters deduplicate; Close reports it.
			if err := old.core.Drain(exec{s: old}); err != nil {
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

// adoptShardMap installs a validated shard identity and address table on a
// running server, which then serves them.
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
	s.core.SetShard(servedShard{m, addrs}, idx)
	return nil
}
