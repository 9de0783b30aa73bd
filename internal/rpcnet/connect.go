package rpcnet

import (
	"errors"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Conn is the unified client-side handle of a Catfish deployment: the
// method set shared by the single-server Client and the scatter-gather
// Router, so callers write to one interface whether they connected to one
// server, a sharded deployment, or a replicated one. Connect is the
// constructor; like the concrete types, a Conn serves one goroutine at a
// time.
type Conn interface {
	// Search returns every indexed item intersecting q and the access
	// method that served it (a router reports the method of the slowest
	// sub-search).
	Search(q geo.Rect) ([]wire.Item, Method, error)
	// Insert adds an entry (routed to its owning shard).
	Insert(r geo.Rect, ref uint64) error
	// Delete removes an entry by rectangle and ref.
	Delete(r geo.Rect, ref uint64) error
	// Move relocates entry (from, ref) to (to, ref) — atomic under one
	// tree latch when one shard owns both positions, insert-then-delete
	// across an ownership boundary. Upsert semantics: moving an unknown
	// entry degrades to a plain insert.
	Move(from, to geo.Rect, ref uint64) error
	// Nearest returns the k entries nearest to (x, y) in ascending
	// distance order, exactly matching a local rtree.Tree.Nearest over
	// the deployment's union (a router gathers shards best-first). kNN is
	// pinned to server-side execution, so the method is fast or fetch.
	Nearest(k int, x, y float64) ([]rtree.Neighbor, Method, error)
	// ExecBatch executes ops in one multiplexed flight; results is
	// reused when non-nil. Per-op errors land in the results.
	ExecBatch(ops []BatchOp, results []BatchResult) []BatchResult
	// Snapshot returns the connection's accumulated client metrics
	// (summed across shards for a router).
	Snapshot() telemetry.ClientSnapshot
	// Close releases the connection's streams; pooled transports stay
	// open for their other users.
	Close() error
}

// Both concrete handles satisfy Conn.
var (
	_ Conn = (*Client)(nil)
	_ Conn = (*Router)(nil)
)

// Snapshot returns the client's accumulated metrics (Conn's name for
// Stats).
func (c *Client) Snapshot() telemetry.ClientSnapshot { return c.Stats() }

// connectOptions is the merged option state Connect resolves into either
// a Client or a Router.
type connectOptions struct {
	client ClientConfig
	router RouterConfig
	pool   *MuxPool
}

// routed reports whether any router-only behavior was requested, forcing
// the Router shape even for a single address.
func (o *connectOptions) routed() bool {
	return len(o.router.Backups) > 0 || o.router.HealthMultiple > 0
}

// Option tunes Connect. Options apply in order, so later options override
// earlier ones (put WithClientConfig first when combining it with finer
// options).
type Option func(*connectOptions)

// WithClientConfig replaces the per-connection client configuration
// wholesale: the adaptive switch's parameters, the fetch branch, node
// cache, merged spans, prefetch, metrics and tracing are all ClientConfig
// fields. WithForced, WithSeed and WithDeadline applied after it still
// override their fields.
func WithClientConfig(cfg ClientConfig) Option {
	return func(o *connectOptions) { o.client = cfg }
}

// WithForced pins every search to one access method, disabling the
// adaptive switch.
func WithForced(m Method) Option {
	return func(o *connectOptions) {
		o.client.Adaptive = false
		o.client.Forced = m
	}
}

// WithSeed seeds the connection's back-off randomness (a router offsets it
// per shard so draws decorrelate).
func WithSeed(seed int64) Option {
	return func(o *connectOptions) { o.client.Seed = seed }
}

// WithDeadline stamps every fast-messaging operation with a relative
// latency budget; an admission-controlled server sheds the operation with
// ErrOverloaded when it cannot start within the budget.
func WithDeadline(d time.Duration) Option {
	return func(o *connectOptions) { o.client.Deadline = d }
}

// WithBackups configures per-shard backup replicas in preference order,
// arming read fallback and write failover (DESIGN.md §5.11). Forces the
// Router shape even for a single address.
func WithBackups(backups [][]string) Option {
	return func(o *connectOptions) { o.router.Backups = backups }
}

// WithHealthMultiple sets the shard-liveness window in heartbeat
// intervals. Forces the Router shape even for a single address.
func WithHealthMultiple(n int) Option {
	return func(o *connectOptions) { o.router.HealthMultiple = n }
}

// WithMuxPool attaches the connection's logical clients to pooled
// multiplexed transports instead of dedicated sockets, so thousands of
// Conns share a bounded set of TCP connections (the C10K shape). The pool
// outlives the Conn: Close detaches streams but leaves pooled connections
// open for their other users.
func WithMuxPool(p *MuxPool) Option {
	return func(o *connectOptions) { o.pool = p }
}

// Connect is the unified entry point to a Catfish deployment over real
// sockets: one address yields a direct client, several (or any
// router-only option — backups, health tracking) yield a scatter-gather
// router, and a MuxPool multiplexes either shape over shared connections.
func Connect(addrs []string, opts ...Option) (Conn, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpcnet: connect needs at least one address")
	}
	var o connectOptions
	for _, opt := range opts {
		opt(&o)
	}
	if len(addrs) == 1 && !o.routed() {
		if o.pool != nil {
			m, err := o.pool.Mux(addrs[0])
			if err != nil {
				return nil, err
			}
			return m.Client(o.client)
		}
		return dialClient(addrs[0], o.client)
	}
	rc := o.router
	rc.Client = o.client
	rc.Pool = o.pool
	return connectRouter(addrs, rc)
}
