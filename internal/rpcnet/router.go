package rpcnet

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/wire"
)

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Client configures each per-shard connection. The adaptive switch is
	// per connection, so Algorithm 1 runs independently per shard; Seed is
	// offset by the shard index so back-off draws decorrelate.
	Client ClientConfig
	// HealthMultiple is the shard-liveness window in heartbeat intervals
	// (shard.DefaultHealthMultiple when 0); liveness tracking is disabled
	// when the servers do not heartbeat.
	HealthMultiple int
	// Backups holds, per shard, backup server addresses in preference
	// order. Nil (or empty inner slices) disables failover for that shard,
	// leaving routing identical to an unreplicated deployment.
	Backups [][]string
	// Pool, when non-nil, attaches each per-shard client to a pooled
	// multiplexed connection instead of dialing its own socket, so many
	// routers (and plain clients) share a bounded set of TCP connections.
	// The pool's lifetime is the caller's: closing the router detaches its
	// streams but leaves the pooled connections open.
	Pool *MuxPool
}

// Router is the real-socket adapter of the shard router: one TCP connection
// — and one adaptive switch — per replica, forks as goroutines, liveness
// from heartbeat arrival times, and a served shard map whose version
// differs from the router's adopted mid-run (live resharding). Every
// routing decision — scatter-gather, owner writes, failover election, kNN
// gather, batch partitioning (DESIGN.md §5.11–§5.13) — is the embedded
// shard.Core's, whose methods make a Router a Conn. Like Client it serves
// one goroutine at a time; Stats, Snapshot, Map and Replicas are safe
// from others.
type Router struct {
	shard.Core[*Client]
	cfg    RouterConfig
	start  time.Time
	window time.Duration // liveness window (0 = no tracking)
}

// connectRouter connects to every shard of a deployment, in shard order,
// validates that the servers agree on the deployment shape (position,
// count, and map version), and fetches and verifies the shard map. A
// single unsharded address yields a trivial one-shard router.
func connectRouter(addrs []string, cfg RouterConfig) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpcnet: router needs at least one address")
	}
	r := &Router{start: time.Now(), cfg: cfg}
	replicas := make([][]*Client, 0, len(addrs))
	ok := false
	defer func() {
		if !ok {
			closeAll(replicas)
		}
	}()
	for i, addr := range addrs {
		c, err := r.dialShard(addr, i)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, []*Client{c})
		h := c.Hello()
		if h.Index != wire.IndexRTree {
			return nil, fmt.Errorf("rpcnet: shard %d (%s): %w", i, addr, proto.ErrIndex)
		}
		if h.ShardCount <= 1 && len(addrs) == 1 {
			continue // unsharded single server: trivial map below
		}
		if int(h.ShardCount) != len(addrs) {
			return nil, fmt.Errorf("rpcnet: shard %d (%s) reports %d shards, router has %d addresses",
				i, addr, h.ShardCount, len(addrs))
		}
		if int(h.ShardIndex) != i {
			return nil, fmt.Errorf("rpcnet: address %d (%s) is shard %d; list addresses in shard order",
				i, addr, h.ShardIndex)
		}
		if h.MapVersion != replicas[0][0].Hello().MapVersion {
			return nil, fmt.Errorf("%w: shard %d (%s)", shard.ErrVersionMismatch, i, addr)
		}
	}
	first := replicas[0][0]
	m := shard.Single()
	if len(addrs) > 1 || first.Hello().ShardCount > 1 {
		var err error
		if m, err = first.FetchShardMap(); err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.K() != len(addrs) {
			return nil, fmt.Errorf("rpcnet: map has %d cells, router has %d addresses", m.K(), len(addrs))
		}
	}
	epochs := make([]uint64, len(replicas))
	for s := range replicas {
		epochs[s] = replicas[s][0].Hello().ReplicaEpoch
		if s >= len(cfg.Backups) {
			continue
		}
		for _, baddr := range cfg.Backups[s] {
			c, err := r.dialShard(baddr, s)
			if err != nil {
				return nil, fmt.Errorf("rpcnet: shard %d backup: %w", s, err)
			}
			replicas[s] = append(replicas[s], c)
		}
	}
	hbInv := time.Duration(first.Hello().HeartbeatMs) * time.Millisecond
	if hbInv > 0 {
		mult := cfg.HealthMultiple
		if mult <= 0 {
			mult = shard.DefaultHealthMultiple
		}
		r.window = hbInv * time.Duration(mult)
	}
	core, err := shard.NewCore(shard.CoreConfig[*Client]{
		Map:               m,
		Replicas:          replicas,
		Epochs:            epochs,
		HeartbeatInterval: hbInv,
		HealthMultiple:    cfg.HealthMultiple,
	}, wallExec{r})
	if err != nil {
		return nil, err
	}
	r.Core = core
	if reg := cfg.Client.Metrics; reg != nil {
		// Per-shard liveness gauges and the availability counters
		// (satellites of DESIGN.md §5.11). The gauges read only heartbeat
		// arrival atomics — never the health tracker, which is owned by the
		// routing goroutine.
		for i := range replicas {
			i := i
			reg.With("shard", strconv.Itoa(i)).GaugeFunc("catfish_shard_healthy", func() float64 {
				if rs := r.Replicas(); i < len(rs) {
					for _, c := range rs[i] {
						if r.alive(c) {
							return 1
						}
					}
				}
				return 0
			})
		}
		reg.CounterFunc("catfish_shard_skipped_searches_total", func() uint64 { return r.Stats().Skipped })
		reg.CounterFunc("catfish_router_promotions_total", func() uint64 { return r.Stats().Promotions })
		reg.CounterFunc("catfish_router_backup_reads_total", func() uint64 { return r.Stats().BackupReads })
		reg.CounterFunc("catfish_router_map_adoptions_total", func() uint64 { return r.Stats().MapAdoptions })
	}
	ok = true
	return r, nil
}

// dialShard dials one replica of shard i with the per-shard client config.
func (r *Router) dialShard(addr string, i int) (*Client, error) {
	ccfg := r.cfg.Client
	ccfg.Seed += int64(i)
	ccfg.Shard = i
	if ccfg.Metrics != nil {
		// Per-shard label so the scraped series separate by shard.
		ccfg.Metrics = ccfg.Metrics.With("shard", strconv.Itoa(i))
	}
	var c *Client
	var err error
	if r.cfg.Pool != nil {
		var m *Mux
		if m, err = r.cfg.Pool.Mux(addr); err == nil {
			c, err = m.Client(ccfg)
		}
	} else {
		c, err = dialClient(addr, ccfg)
	}
	if err != nil {
		return nil, fmt.Errorf("rpcnet: shard %d (%s): %w", i, addr, err)
	}
	return c, nil
}

// Close tears down every connection, returning the first error.
func (r *Router) Close() error { return closeAll(r.Replicas()) }

func closeAll(replicas [][]*Client) error {
	var first error
	for _, cs := range replicas {
		for _, c := range cs {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// alive reports whether c's last heartbeat is within the liveness window
// from arrival atomics alone (no health-tracker state), so it is safe from
// any goroutine. Before the first heartbeat the connection gets the same
// one-window grace the tracker gives.
func (r *Router) alive(c *Client) bool {
	if r.window == 0 {
		return true
	}
	age, seen := c.HeartbeatAge()
	if !seen {
		return time.Since(r.start) <= r.window
	}
	return age <= r.window
}

// maybeAdopt checks each shard's heartbeat for a served map version that
// differs from the router's and, when found, adopts the successor map.
func (r *Router) maybeAdopt() {
	m := r.Map()
	for s := 0; s < m.K(); s++ {
		c := r.Serving(s)
		if v := c.HeartbeatMapVersion(); v != 0 && v != m.Version {
			if r.adoptFrom(c, m) {
				return
			}
		}
	}
}

// adoptFrom fetches the map a server now serves and installs it when it is
// a valid successor of cur: checksum intact, strictly more cells (versions
// are content hashes, not ordered, so growth is the staleness check), and
// a full address table so the new shards can be dialed. The new shard
// positions get fresh connections whose hellos must agree on the adopted
// version; existing positions keep their connections and candidate lists.
// Reports whether the map was adopted.
func (r *Router) adoptFrom(from *Client, cur *shard.Map) bool {
	m, addrs, err := from.FetchShardMapFull()
	if err != nil {
		return false
	}
	if m.Validate() != nil || m.K() <= cur.K() || len(addrs) != m.K() {
		return false
	}
	var fresh []*Client
	var epochs []uint64
	abort := func() bool {
		closeAll([][]*Client{fresh})
		return false
	}
	for s := cur.K(); s < m.K(); s++ {
		c, derr := r.dialShard(addrs[s], s)
		if derr != nil {
			return abort()
		}
		fresh = append(fresh, c)
		epochs = append(epochs, c.Hello().ReplicaEpoch)
		if hv := c.Hello().MapVersion; hv != 0 && hv != m.Version {
			return abort()
		}
	}
	r.Adopt(m, fresh, epochs)
	return true
}

// wallExec is real sockets' shard.Exec: the wall clock since the router
// connected, goroutines as forks, a torn-down connection as one more
// reason to fail over, and liveness and applied sequence as each
// connection's heartbeats last reported them.
type wallExec struct{ r *Router }

func (x wallExec) Now() time.Duration    { return time.Since(x.r.start) }
func (x wallExec) Sleep(d time.Duration) { time.Sleep(d) }

func (x wallExec) Fork(n int, fn func(shard.Exec[*Client], int)) {
	var wg sync.WaitGroup
	for slot := 1; slot < n; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(x, slot)
		}()
	}
	fn(x, 0)
	wg.Wait()
}

// Failover adds the TCP-only case to the shared replica sentinels: the
// process died outright and took the connection with it. An admission shed
// is deliberately not a failover trigger — the server is alive but
// saturated.
func (x wallExec) Failover(err error) bool {
	return replica.Failover(err) || errors.Is(err, ErrClosed)
}

func (x wallExec) Overloaded(err error) bool { return errors.Is(err, ErrOverloaded) }

func (x wallExec) Bind(c *Client) shard.Replica { return c }

func (x wallExec) Report(c *Client) shard.Report {
	rep := shard.Report{Alive: x.r.alive(c)}
	_, rep.Applied = c.ReplicaState()
	if age, seen := c.HeartbeatAge(); seen {
		rep.HeardAt, rep.Heard = x.Now()-age, true
	}
	return rep
}

// Refresh adopts a successor map: at an operation's start the one a heartbeat
// announced, after a fence the one the refusing shard serves.
func (x wallExec) Refresh(fenced int) {
	if fenced >= 0 {
		x.r.adoptFrom(x.r.Serving(fenced), x.r.Map())
		return
	}
	x.r.maybeAdopt()
}
