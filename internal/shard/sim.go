package shard

import (
	"time"

	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/sim"
)

// RouterConfig parametrizes a simulated-fabric Router.
type RouterConfig struct {
	// Engine is the simulation the clients run in.
	Engine *sim.Engine
	// Map is the deployment's shard map.
	Map *Map
	// Clients holds one connected client per shard, in shard order. Each
	// client owns its own adaptive.Switch, so Algorithm 1's back-off runs
	// independently per shard: a hot shard offloads while idle shards keep
	// fast messaging.
	Clients []*client.Client
	// HeartbeatInterval is the servers' heartbeat period; liveness tracking
	// is disabled when zero.
	HeartbeatInterval time.Duration
	// HealthMultiple is the liveness window in heartbeat intervals
	// (DefaultHealthMultiple when 0).
	HealthMultiple int
	// Backups holds, per shard, connected clients to that shard's backup
	// servers in preference order. Nil (or empty inner slices) disables
	// failover for that shard, leaving routing bit-for-bit identical to an
	// unreplicated deployment.
	Backups [][]*client.Client
}

// Router is the simulated-fabric adapter of Core: it holds the router
// state and the heartbeat monitor, and On binds it to the simulation
// process that drives an operation. Sub-operations of one call run as
// spawned simulation processes, mirroring the goroutine fan-out over real
// sockets. A router serves one driving process at a time.
type Router struct {
	*state[*client.Client]
	engine *sim.Engine
	// lastSeq is the heartbeat sequence the monitor last saw per client; a
	// change means a heartbeat arrived since the previous poll.
	lastSeq map[*client.Client]uint64
}

// NewRouter builds a router over one connected client per shard and starts
// its heartbeat monitor process. Call before sim.Engine.Run (or from a
// running process).
func NewRouter(cfg RouterConfig) (*Router, error) {
	replicas := make([][]*client.Client, len(cfg.Clients))
	for s, c := range cfg.Clients {
		replicas[s] = append(replicas[s], c)
		if s < len(cfg.Backups) {
			replicas[s] = append(replicas[s], cfg.Backups[s]...)
		}
	}
	r := &Router{engine: cfg.Engine, lastSeq: make(map[*client.Client]uint64)}
	core, err := NewCore(CoreConfig[*client.Client]{
		Map:               cfg.Map,
		Replicas:          replicas,
		HeartbeatInterval: cfg.HeartbeatInterval,
		HealthMultiple:    cfg.HealthMultiple,
	}, simExec{r: r})
	if err != nil {
		return nil, err
	}
	r.state = core.state
	if cfg.HeartbeatInterval > 0 {
		cfg.Engine.Spawn("shard-hb-monitor", r.monitor(cfg.HeartbeatInterval))
	}
	return r, nil
}

// monitor polls each shard's serving client's heartbeat mailbox sequence
// once per heartbeat interval and feeds arrivals to the liveness tracker.
func (r *Router) monitor(interval time.Duration) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			for i := range r.cands {
				c := r.Serving(i)
				if seq := c.HeartbeatSeq(); seq != r.lastSeq[c] {
					r.lastSeq[c] = seq
					r.health.Observe(i, p.Now())
				}
			}
		}
	}
}

// On returns the router driven by process p; call its routed operations
// from p.
func (r *Router) On(p *sim.Proc) Core[*client.Client] {
	return Core[*client.Client]{state: r.state, x: simExec{r: r, p: p}}
}

// simExec is the simulated fabric's Exec: virtual time, spawned processes
// as forks, and nothing lazily learned — the monitor pushes heartbeats,
// the sim never sheds or reshards, and every replica counts as alive with
// equal applied sequences, so elections run in preference order.
type simExec struct {
	r *Router
	p *sim.Proc
}

func (x simExec) Now() time.Duration    { return x.r.engine.Now() }
func (x simExec) Sleep(d time.Duration) { x.p.Sleep(d) }

func (x simExec) Fork(n int, fn func(Exec[*client.Client], int)) {
	wg := sim.NewWaitGroup(x.r.engine)
	wg.Add(n - 1)
	for slot := 1; slot < n; slot++ {
		slot := slot
		x.p.Spawn("shard-fork", func(sp *sim.Proc) {
			fn(simExec{r: x.r, p: sp}, slot)
			wg.Done()
		})
	}
	fn(x, 0)
	wg.Wait(x.p)
}

func (x simExec) Failover(err error) bool { return replica.Failover(err) }
func (x simExec) Overloaded(error) bool   { return false }
func (x simExec) Refresh()                {}

func (x simExec) Report(*client.Client) Report { return Report{Alive: true} }

func (x simExec) Bind(c *client.Client) Replica {
	return simReplica{Handle: c.On(x.p), c: c, r: x.r}
}

// simReplica is a simulated client bound to the process its calls run on.
type simReplica struct {
	client.Handle
	c *client.Client
	r *Router
}

// Promote also resets the monitor's view of the promoted client, so only
// heartbeats arriving after the promotion count as its liveness.
func (b simReplica) Promote(epoch uint64) error {
	err := b.Handle.Promote(epoch)
	if err == nil {
		b.r.lastSeq[b.c] = b.c.HeartbeatSeq()
	}
	return err
}
