package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/proto"
	"github.com/catfish-db/catfish/internal/replica"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/telemetry"
	"github.com/catfish-db/catfish/internal/wire"
)

// Replica is one replica's client as the router drives it: the routed
// operations plus the promotion control message, already bound to the
// context the call runs on (Exec.Bind).
type Replica interface {
	Search(q geo.Rect) ([]wire.Item, proto.Method, error)
	Insert(r geo.Rect, ref uint64) error
	Delete(r geo.Rect, ref uint64) error
	Move(from, to geo.Rect, ref uint64) error
	Nearest(k int, x, y float64) ([]rtree.Neighbor, proto.Method, error)
	ExecBatch(ops []proto.BatchOp, results []proto.BatchResult) []proto.BatchResult
	// Promote asks the replica to adopt epoch and start accepting writes.
	Promote(epoch uint64) error
}

// Exec is everything the routing logic needs from a transport, over that
// transport's per-replica client type C. The first four are the execution
// context proper — a clock, a sleep, fork-and-join, and which errors mean
// what — and are all the routing decisions depend on; the rest hand the
// router its clients and what the transport has heard from them. The
// simulated fabric implements it over a *sim.Proc (virtual time, spawned
// processes), real sockets over the wall clock and goroutines.
type Exec[C any] interface {
	// Now is the time liveness windows are measured in.
	Now() time.Duration
	Sleep(d time.Duration)
	// Fork runs fn(x, slot) for every slot in [0, n) concurrently and
	// returns once all have: slot 0 on the caller with this context, each
	// further slot on its own context x.
	Fork(n int, fn func(x Exec[C], slot int))
	// Failover reports whether err means the replica refuses service
	// (killed, fenced, demoted, connection gone): reads go to another
	// replica, writes promote one. Overloaded reports an admission shed:
	// the replica is alive but saturated, so the router backs off instead
	// of promoting.
	Failover(err error) bool
	Overloaded(err error) bool

	// Bind returns c's operations bound to this context.
	Bind(c C) Replica
	// Report returns what the transport last heard from c.
	Report(c C) Report
	// Refresh runs on the driver at the top of every routed operation
	// (fenced < 0), so a transport whose deployment can change shape mid-run
	// gets to Adopt the successor map first, and after shard fenced refused
	// a write as outside its cell, to adopt the map that shard serves.
	Refresh(fenced int)
}

// Report is what a transport has heard from one replica.
type Report struct {
	// Alive reports whether the replica is heartbeating; only live replicas
	// stand for election or take diverted reads.
	Alive bool
	// HeardAt is when the replica's last heartbeat arrived, on the Now
	// clock, for a transport that timestamps arrivals (Heard true) — the
	// router feeds it to its liveness tracker when it asks after the
	// shard. A transport that feeds the tracker itself leaves Heard false.
	HeardAt time.Duration
	Heard   bool
	// Applied is the replication sequence the replica has applied; the
	// election prefers the most caught-up. All-equal reports elect in
	// preference order.
	Applied uint64
}

// CoreConfig parametrizes NewCore.
type CoreConfig[C any] struct {
	// Map is the deployment's shard map.
	Map *Map
	// Replicas holds, per shard, that shard's clients in preference order:
	// the primary first, then its backups. A shard with one replica has no
	// failover; with none anywhere, routing is bit-for-bit that of an
	// unreplicated deployment.
	Replicas [][]C
	// Epochs is the fencing epoch each shard is known to be at (1 when
	// nil).
	Epochs []uint64
	// HeartbeatInterval is the servers' heartbeat period; liveness tracking
	// is disabled when zero. HealthMultiple is the liveness window in
	// intervals (DefaultHealthMultiple when 0).
	HeartbeatInterval time.Duration
	HealthMultiple    int
}

// RouterStats counts router-level outcomes. Per-shard transport and
// offloading counters live in each shard client's Stats.
type RouterStats struct {
	// Searches and Writes count routed operations. A move counts toward
	// Writes once per shard it touches (once same-owner, twice cross-owner)
	// on top of its Moves count; a kNN counts only in KNNs.
	Searches uint64
	Writes   uint64
	Moves    uint64
	KNNs     uint64
	// Fanout is the total number of shard sub-searches issued; divided by
	// Searches it gives the mean fan-out per search.
	Fanout uint64
	// Skipped counts searches whose every target shard was unhealthy; they
	// return empty result sets rather than blocking.
	Skipped uint64
	// UnhealthyWrites counts writes rejected with UnhealthyError.
	UnhealthyWrites uint64
	// Promotions counts successful backup promotions (failovers).
	Promotions uint64
	// BackupReads counts sub-reads answered by a replica other than the
	// serving one (it refused service or shed).
	BackupReads uint64
	// MapAdoptions counts successor shard maps adopted mid-run during live
	// resharding.
	MapAdoptions uint64
}

// snapshotter is what the router needs from a per-replica client beyond the
// operations an Exec binds.
type snapshotter interface {
	Stats() telemetry.ClientSnapshot
}

// state is a router's shared half: the deployment shape, the liveness
// tracker, counters and scratch. A Core pairs it with the execution
// context of one driver.
type state[C snapshotter] struct {
	// mu guards the shape — m, cands, active, epochs — for readers on other
	// goroutines (a metrics scrape). The driver is the only mutator and
	// reads without it.
	mu     sync.RWMutex
	m      *Map
	cands  [][]C    // per shard: replicas in preference order
	active []int    // index into cands[s] of the serving replica
	epochs []uint64 // epoch this router last knew (or promoted) the shard to

	health         *Health
	hbInterval     time.Duration
	healthMultiple int
	stats          RouterStats

	// dedup turns on merged-result deduplication after the first map
	// adoption: between a reshard's commit and its drain the moved entries
	// exist on both the old and the new shard, so a scatter that hits both
	// must collapse duplicates.
	dedup bool

	// Reused scatter/batch scratch (one driver, so no locking).
	targets []int
	gatherI [][]wire.Item
	gatherM []proto.Method
	gatherE []error
	subOps  [][]proto.BatchOp
	subIdx  [][]int // original op index per sub-op
	subRes  [][]proto.BatchResult
	busy    []int
}

// Core is the one shard router: it scatters searches across the shards
// whose coverage intersects the query and merges the partial result sets,
// routes each write to its unique owning shard, gathers kNN best-first,
// partitions batches per shard, and — with backups configured — runs the
// availability protocol (DESIGN.md §5.11): reads fall back to other
// replicas when the serving one refuses service, writes promote the most
// caught-up live backup behind a bumped fencing epoch. It is transport
// neutral: every call a transport-specific adapter would make differently
// goes through Exec. A Core value is the shared router state bound to one
// driver's context; it serves one driver at a time, and per-operation
// concurrency (Fork) is internal.
type Core[C snapshotter] struct {
	*state[C]
	x Exec[C]
}

// NewCore builds a router over cfg's replicas, driven on x.
func NewCore[C snapshotter](cfg CoreConfig[C], x Exec[C]) (Core[C], error) {
	if cfg.Map == nil {
		return Core[C]{}, fmt.Errorf("shard: router needs a map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return Core[C]{}, err
	}
	k := cfg.Map.K()
	if len(cfg.Replicas) != k {
		return Core[C]{}, fmt.Errorf("shard: %d clients for %d shards", len(cfg.Replicas), k)
	}
	s := &state[C]{
		m:              cfg.Map,
		cands:          cfg.Replicas,
		active:         make([]int, k),
		epochs:         make([]uint64, k),
		hbInterval:     cfg.HeartbeatInterval,
		healthMultiple: cfg.HealthMultiple,
	}
	for i := range s.epochs {
		s.epochs[i] = 1
		if i < len(cfg.Epochs) {
			s.epochs[i] = max(cfg.Epochs[i], 1)
		}
	}
	r := Core[C]{state: s, x: x}
	if cfg.HeartbeatInterval > 0 {
		s.health = NewHealth(k, cfg.HeartbeatInterval, cfg.HealthMultiple, x.Now())
	}
	return r, nil
}

// Map returns the deployment's shard map (the adopted successor after a
// live reshard). Safe from any goroutine.
func (s *state[C]) Map() *Map {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m
}

// Replicas returns every shard's clients in preference order. The result
// is a snapshot the caller must not modify. Safe from any goroutine.
func (s *state[C]) Replicas() [][]C {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cands
}

// Snapshot aggregates every replica client's counters into one unified
// snapshot. Safe from any goroutine.
func (s *state[C]) Snapshot() telemetry.ClientSnapshot {
	var agg telemetry.ClientSnapshot
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, cs := range s.cands {
		for _, c := range cs {
			agg = agg.Add(c.Stats())
		}
	}
	return agg
}

// Stats returns a snapshot of the router's counters. Safe from any
// goroutine.
func (s *state[C]) Stats() RouterStats {
	return RouterStats{
		Searches:        atomic.LoadUint64(&s.stats.Searches),
		Writes:          atomic.LoadUint64(&s.stats.Writes),
		Moves:           atomic.LoadUint64(&s.stats.Moves),
		KNNs:            atomic.LoadUint64(&s.stats.KNNs),
		Fanout:          atomic.LoadUint64(&s.stats.Fanout),
		Skipped:         atomic.LoadUint64(&s.stats.Skipped),
		UnhealthyWrites: atomic.LoadUint64(&s.stats.UnhealthyWrites),
		Promotions:      atomic.LoadUint64(&s.stats.Promotions),
		BackupReads:     atomic.LoadUint64(&s.stats.BackupReads),
		MapAdoptions:    atomic.LoadUint64(&s.stats.MapAdoptions),
	}
}

// Serving returns the client serving shard i — the primary until a
// failover swaps in a promoted backup. Driver only.
func (s *state[C]) Serving(i int) C { return s.cands[i][s.active[i]] }

// Healthy reports shard i's current liveness: whether its serving replica
// has heartbeated within the window. Driver only.
func (r Core[C]) Healthy(i int) bool {
	if r.health == nil {
		return true
	}
	if rep := r.x.Report(r.Serving(i)); rep.Heard {
		r.health.Observe(i, rep.HeardAt)
	}
	return r.health.Healthy(i, r.x.Now())
}

// Adopt installs successor map m mid-run (live resharding): the shards the
// router already has keep their replicas, and each cell past them is
// served by the matching client of fresh at the matching epoch. From here
// on merged results collapse duplicates, because until the split shard
// drains both it and its successor answer for the moved entries. The
// caller has validated m. Driver only.
func (r Core[C]) Adopt(m *Map, fresh []C, epochs []uint64) {
	old := len(r.cands)
	k := old + len(fresh)
	cands := make([][]C, k)
	active := make([]int, k)
	eps := make([]uint64, k)
	copy(cands, r.cands)
	copy(active, r.active)
	copy(eps, r.epochs)
	for i, c := range fresh {
		cands[old+i] = []C{c}
		eps[old+i] = max(epochs[i], 1)
	}
	if r.health != nil {
		// Every shard restarts with a full window of grace.
		r.health = NewHealth(k, r.hbInterval, r.healthMultiple, r.x.Now())
	}
	r.mu.Lock()
	r.m, r.cands, r.active, r.epochs = m, cands, active, eps
	r.mu.Unlock()
	r.dedup = true
	atomic.AddUint64(&r.stats.MapAdoptions, 1)
}

// failover promotes the best remaining replica of shard s to a bumped
// epoch and makes it the serving one. This is the one election rule: the
// electorate is every replica the transport reports alive, the winner the
// one with the highest applied sequence (ties to the lowest index, so
// every router elects the same successor — and a transport that reports
// no sequences elects in preference order). A candidate that fails the
// promote round trip leaves the electorate and the election reruns.
// Reports whether a promotion succeeded.
func (r Core[C]) failover(s int) bool {
	cands := r.cands[s]
	if len(cands) <= 1 {
		return false
	}
	epoch := r.epochs[s] + 1
	applied := make([]uint64, len(cands))
	alive := make([]bool, len(cands))
	for i, c := range cands {
		rep := r.x.Report(c)
		alive[i], applied[i] = rep.Alive, rep.Applied
	}
	for range cands {
		idx := replica.PickSuccessor(applied, alive)
		if idx < 0 {
			return false
		}
		if err := r.x.Bind(cands[idx]).Promote(epoch); err != nil {
			alive[idx] = false
			continue
		}
		r.mu.Lock()
		r.epochs[s] = epoch
		r.active[s] = idx
		r.mu.Unlock()
		// The promoted replica gets a fresh liveness window; its own
		// heartbeats take over from here.
		r.health.Observe(s, r.x.Now())
		atomic.AddUint64(&r.stats.Promotions, 1)
		return true
	}
	return false
}

// healthyTargets computes the scatter set for q, dropping unhealthy shards.
// The second result is false when every target was unhealthy.
func (r Core[C]) healthyTargets(q geo.Rect) ([]int, bool) {
	r.targets = r.m.Targets(q, r.targets)
	if r.health == nil {
		return r.targets, true
	}
	healthy := r.targets[:0]
	for _, t := range r.targets {
		// A replicated shard stays in the scatter set even when its serving
		// replica looks dead: readShard falls back to another replica.
		if len(r.cands[t]) > 1 || r.Healthy(t) {
			healthy = append(healthy, t)
		}
	}
	r.targets = healthy
	return r.targets, len(healthy) > 0
}

// overloadAttempts bounds the router's retry budget against an admission
// shed before the shed surfaces to the caller; overloadBackoff is the
// first sleep, doubling per attempt (2, 4, 8 ms — long enough for a
// heartbeat-interval utilization spike to pass, short enough to stay
// inside interactive latency budgets).
const (
	overloadAttempts = 3
	overloadBackoff  = 2 * time.Millisecond
)

// readShard runs one sub-read on shard s, on context x. A shed first tries
// every other live replica — backups absorb reads from a saturated primary
// without promotion — then retries the serving replica with doubling
// backoff. A replica refusing service (killed, fenced, demoted) makes the
// read retry on the shard's others: backups answer reads without
// promotion, so read availability outlives a dying primary. Runs on forked
// contexts: reads the shape, never mutates it.
func readShard[C snapshotter, T any](r Core[C], x Exec[C], s int,
	read func(Replica) (T, proto.Method, error)) (T, proto.Method, error) {
	var zero T
	cands, active := r.cands[s], r.active[s]
	v, m, err := read(x.Bind(cands[active]))
	if x.Overloaded(err) {
		for i, c := range cands {
			if i == active || !x.Report(c).Alive {
				continue
			}
			bv, bm, berr := read(x.Bind(c))
			if berr == nil {
				atomic.AddUint64(&r.stats.BackupReads, 1)
				return bv, bm, nil
			}
			if !x.Overloaded(berr) && !x.Failover(berr) {
				return bv, bm, berr
			}
		}
		backoff := overloadBackoff
		for attempt := 0; attempt < overloadAttempts && x.Overloaded(err); attempt++ {
			x.Sleep(backoff)
			backoff *= 2
			v, m, err = read(x.Bind(cands[active]))
		}
	}
	if err == nil || !x.Failover(err) {
		return v, m, err
	}
	for i, c := range cands {
		if i == active {
			continue
		}
		bv, bm, berr := read(x.Bind(c))
		if berr == nil {
			atomic.AddUint64(&r.stats.BackupReads, 1)
			return bv, bm, nil
		}
		if !x.Failover(berr) {
			return bv, bm, berr
		}
	}
	return zero, m, err
}

// searchShard runs one sub-search on shard s.
func (r Core[C]) searchShard(x Exec[C], s int, q geo.Rect) ([]wire.Item, proto.Method, error) {
	return readShard(r, x, s, func(c Replica) ([]wire.Item, proto.Method, error) {
		return c.Search(q)
	})
}

// Search scatters q to every healthy shard whose coverage intersects it
// and merges the partial result sets in shard order. When every target
// shard is unhealthy the search returns an empty set (the router cannot
// answer it, but read availability degrades gracefully rather than
// blocking). The returned method is the first target's; per-shard methods
// are visible in the shard clients' Stats.
func (r Core[C]) Search(q geo.Rect) ([]wire.Item, proto.Method, error) {
	atomic.AddUint64(&r.stats.Searches, 1)
	r.x.Refresh(-1)
	targets, ok := r.healthyTargets(q)
	if !ok {
		atomic.AddUint64(&r.stats.Skipped, 1)
		return nil, proto.MethodFast, nil
	}
	atomic.AddUint64(&r.stats.Fanout, uint64(len(targets)))
	if len(targets) == 1 {
		return r.searchShard(r.x, targets[0], q)
	}
	n := len(targets)
	r.gatherI = resize(r.gatherI, n)
	r.gatherM = resize(r.gatherM, n)
	r.gatherE = resize(r.gatherE, n)
	r.x.Fork(n, func(x Exec[C], slot int) {
		r.gatherI[slot], r.gatherM[slot], r.gatherE[slot] = r.searchShard(x, targets[slot], q)
	})
	var items []wire.Item
	for slot := 0; slot < n; slot++ {
		if err := r.gatherE[slot]; err != nil {
			return nil, r.gatherM[slot], fmt.Errorf("shard %d: %w", targets[slot], err)
		}
		items = append(items, r.gatherI[slot]...)
	}
	if r.dedup {
		items = dedupItems(items)
	}
	return items, r.gatherM[0], nil
}

// dedupItems collapses duplicate (ref, rect) entries in place, keeping
// first occurrences in merge order.
func dedupItems(items []wire.Item) []wire.Item {
	seen := make(map[wire.Item]struct{}, len(items))
	out := items[:0]
	for _, it := range items {
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		out = append(out, it)
	}
	return out
}

// Insert routes the insert to the owning shard, promoting a backup when
// the owner has stopped heartbeating and failing with UnhealthyError when
// no replica can take the write.
func (r Core[C]) Insert(rect geo.Rect, ref uint64) error {
	r.x.Refresh(-1)
	return r.write(rect, func(c Replica) error { return c.Insert(rect, ref) })
}

// Delete routes the delete to the owning shard, with Insert's failure
// handling.
func (r Core[C]) Delete(rect geo.Rect, ref uint64) error {
	r.x.Refresh(-1)
	return r.write(rect, func(c Replica) error { return c.Delete(rect, ref) })
}

// fenceRetries bounds the map refreshes one write refused by a shard's
// fence (it drained the write's cell off in a live split) retries after;
// one suffices unless further splits commit meanwhile.
const fenceRetries = 3

// write runs op on rect's owner. A refusal by the fence refreshes the map
// from the refusing shard and retries on the owner that map names; a write
// the fence refused was applied nowhere, so the retry cannot duplicate it.
func (r Core[C]) write(rect geo.Rect, op func(Replica) error) error {
	for attempt := 0; ; attempt++ {
		owner, err := r.writeTarget(rect)
		if err != nil {
			return err
		}
		if err = r.writeShard(owner, op); attempt == fenceRetries || !errors.Is(err, proto.ErrWrongShard) {
			return err
		}
		r.x.Refresh(owner)
	}
}

// writeTarget resolves rect's owning shard. A lapsed liveness window is
// the failover trigger: the best backup is promoted and the write goes
// there; without one the write fails with the unified unhealthy error.
func (r Core[C]) writeTarget(rect geo.Rect) (int, error) {
	atomic.AddUint64(&r.stats.Writes, 1)
	owner := r.m.Owner(rect)
	if !r.Healthy(owner) && !r.failover(owner) {
		atomic.AddUint64(&r.stats.UnhealthyWrites, 1)
		return 0, &UnhealthyError{Shard: owner}
	}
	return owner, nil
}

// writeShard runs op against shard s's serving replica, promoting a backup
// and retrying when it refuses service. Attempts are bounded by the
// replica count so a fully dead shard terminates with the unified
// UnhealthyError rather than looping. An admission shed retries the same
// replica with doubling backoff — writes cannot move to a backup, and a
// saturated primary is not a dead one — surfacing the shed once the
// budget runs out.
func (r Core[C]) writeShard(s int, op func(Replica) error) error {
	backoff := overloadBackoff
	shed, failed := 0, 0
	for {
		err := op(r.x.Bind(r.Serving(s)))
		switch {
		case err == nil:
			return nil
		case r.x.Overloaded(err):
			if shed++; shed > overloadAttempts {
				return err
			}
			r.x.Sleep(backoff)
			backoff *= 2
		case !r.x.Failover(err):
			return err
		default:
			if failed++; failed > len(r.cands[s]) || !r.failover(s) {
				atomic.AddUint64(&r.stats.UnhealthyWrites, 1)
				return &UnhealthyError{Shard: s}
			}
		}
	}
}

// resize returns s with length n and every element zeroed, reusing its
// backing array.
func resize[T any](s []T, n int) []T {
	var zero T
	s = s[:0]
	for i := 0; i < n; i++ {
		s = append(s, zero)
	}
	return s
}
