// Geo serving scenario ablations (DESIGN.md §5.13): moving objects
// updating positions through first-class MOVE operations, remote kNN on
// both access-method families, and a Zipfian flash-crowd trace driving the
// autoscaler. The moving-objects and knn ablations run on the simulated
// fabric like the paper figures; the hotspot ablation runs on real
// localhost TCP like the autoscale ablation, because its whole point is
// live resharding under migrating load.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/autoscale"
	"github.com/catfish-db/catfish/internal/client"
	"github.com/catfish-db/catfish/internal/cluster"
	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rpcnet"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/shard"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/stats"
	"github.com/catfish-db/catfish/internal/wire"
	"github.com/catfish-db/catfish/internal/workload"
)

// scenarioFleetCap bounds the moving-objects fleet: every object moves
// every tick, so the op stream scales with the fleet, not the dataset.
const scenarioFleetCap = 50_000

// AblationMovingObjects compares the three ways a fleet's position updates
// can reach the tree: the first-class MOVE op (one round trip, one latch
// acquisition), the classic delete+insert pair (two round trips, two latch
// acquisitions), and MOVEs riding the batched fast path. Each mode
// interleaves position updates with nearby-window searches 1:1 — the geo
// serving mix — on the simulated InfiniBand fabric.
func AblationMovingObjects(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	fleet := o.DatasetSize
	if fleet > scenarioFleetCap {
		fleet = scenarioFleetCap
	}
	clients := o.ablationClients()
	table := stats.NewTable("mode", "kops", "mean_lat_us", "p99_us", "server_moves", "in_place%", "serverCPU%")
	for _, mode := range []string{"move", "del+ins", "batched-move"} {
		res, err := runMovingObjects(o, fleet, clients, mode)
		if err != nil {
			return nil, fmt.Errorf("ablation moving %s: %w", mode, err)
		}
		table.AddRow(mode, fmtKops(res.kops), fmtDur(res.lat.Mean), fmtDur(res.lat.P99),
			fmt.Sprintf("%d", res.serverMoves),
			fmt.Sprintf("%.1f", res.inPlace*100),
			fmt.Sprintf("%.1f", res.cpuUtil*100))
	}
	return table, nil
}

type movingResult struct {
	kops        float64
	lat         stats.Summary
	serverMoves uint64
	inPlace     float64 // share of the server's MOVEs written in place
	cpuUtil     float64
}

func runMovingObjects(o Options, fleet, clients int, mode string) (movingResult, error) {
	// Each driver owns a contiguous slice of the fleet, so no two clients
	// ever race on the same object ref.
	perClient := fleet / clients
	if perClient < 1 {
		perClient = 1
	}
	fleets := make([]*scenario.MovingObjects, clients)
	var seed []rtree.Entry
	for i := range fleets {
		rng := rand.New(rand.NewSource(o.Seed + 100 + int64(i)))
		fleets[i] = scenario.NewMovingObjects(rng, scenario.MovingConfig{
			N: perClient, RefBase: uint64(i * perClient),
		})
		seed = append(seed, fleets[i].Seed()...)
	}
	tree, err := buildTree(seed)
	if err != nil {
		return movingResult{}, err
	}
	d, err := cluster.Deploy(cluster.Config{
		Scheme:         cluster.SchemeCatfish,
		PrebuiltTree:   tree,
		NumClients:     clients,
		ClientsPerHost: 1,
		HeartbeatInv:   o.HeartbeatInv,
		Seed:           o.Seed,
	})
	if err != nil {
		return movingResult{}, err
	}

	lat := stats.NewHistogram()
	err = d.Drive(func(i int, p *sim.Proc) error {
		c := d.On(i, p)
		rng := rand.New(rand.NewSource(o.Seed + 500 + int64(i)))
		fl := fleets[i]
		var pending []scenario.Move
		var batch []client.BatchOp
		var results []client.BatchResult
		record := func(start time.Duration, n int) {
			elapsed := p.Now() - start
			for j := 0; j < n; j++ {
				lat.Record(elapsed / time.Duration(n))
			}
			d.Count(p, n)
		}
		for r := 0; r < o.Requests; r++ {
			if r%2 == 1 {
				// Odd ops: "what's around this vehicle" window search.
				q := fl.Nearby(rng.Intn(fl.Len()), 0.002)
				start := p.Now()
				if _, _, err := c.Search(q); err != nil {
					return err
				}
				record(start, 1)
				continue
			}
			if len(pending) == 0 {
				pending = fl.Tick(rng, pending)
			}
			mv := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			switch mode {
			case "move":
				start := p.Now()
				if err := c.Move(mv.From, mv.To, mv.Ref); err != nil {
					return err
				}
				record(start, 1)
			case "del+ins":
				start := p.Now()
				if err := c.Delete(mv.From, mv.Ref); err != nil && !errors.Is(err, client.ErrNotFound) {
					return err
				}
				if err := c.Insert(mv.To, mv.Ref); err != nil {
					return err
				}
				record(start, 1)
			case "batched-move":
				batch = append(batch, client.BatchOp{
					Type: wire.MsgMove, Rect: mv.From, Rect2: mv.To, Ref: mv.Ref,
				})
				if len(batch) < o.BatchSize && r+2 < o.Requests {
					continue
				}
				start := p.Now()
				results = c.ExecBatch(batch, results)
				for _, res := range results {
					if res.Err != nil {
						return res.Err
					}
				}
				record(start, len(batch))
				batch = batch[:0]
			}
		}
		return nil
	}, nil)
	if err != nil {
		return movingResult{}, err
	}
	res := d.Result()
	out := movingResult{
		kops:        res.Kops,
		lat:         lat.Summarize(),
		serverMoves: res.ServerStats.Moves,
		cpuUtil:     res.ServerCPUUtil,
	}
	if out.serverMoves > 0 {
		out.inPlace = float64(res.ServerStats.MovesInPlace) / float64(out.serverMoves)
	}
	return out, nil
}

// AblationKNN measures remote k-nearest-neighbor queries across k and
// across the access-method arms kNN can use. Best-first traversal cannot
// offload — every heap pop depends on all previous pops, so a client-side
// traversal degenerates into one dependent chunk-read round trip per node
// — which leaves fast messaging and the fetch/mailbox path; the adaptive
// arm runs the server-side 3-way switch (DecideServerSide). The sharded
// arm routes through the best-first cross-shard gather, whose fanout
// column shows the CoverDistSq pruning: small k touches ~1 shard of 4.
// Every 50th query is checked against a local tree.Nearest — the remote
// path must reproduce it exactly.
func AblationKNN(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	n := o.DatasetSize
	if n > 500_000 {
		n = 500_000
	}
	data := workload.UniformRectsRand(rand.New(rand.NewSource(o.Seed)), n, 0.0001)
	clients := o.ablationClients()
	table := stats.NewTable("arm", "k", "kops", "mean_lat_us", "fetch%", "fanout")
	for _, arm := range []string{"fast", "adaptive-3way", "sharded-4"} {
		for _, k := range []int{1, 10, 100} {
			res, err := runKNN(o, data, clients, arm, k)
			if err != nil {
				return nil, fmt.Errorf("ablation knn %s k=%d: %w", arm, k, err)
			}
			table.AddRow(arm, fmt.Sprintf("%d", k), fmtKops(res.kops), fmtDur(res.lat.Mean),
				fmt.Sprintf("%.1f", res.fetchFrac*100),
				fmt.Sprintf("%.2f", res.fanout))
		}
	}
	return table, nil
}

type knnResult struct {
	kops      float64
	lat       stats.Summary
	fetchFrac float64
	fanout    float64
}

func runKNN(o Options, data []rtree.Entry, clients int, arm string, k int) (knnResult, error) {
	cfg := cluster.Config{
		Scheme:         cluster.SchemeFastEvent,
		NumClients:     clients,
		ClientsPerHost: 1,
		HeartbeatInv:   o.HeartbeatInv,
		Seed:           o.Seed,
	}
	if arm == "adaptive-3way" {
		cfg.Scheme = cluster.SchemeCatfish3
		cfg.FetchSlots = 64
	}
	// The static arms heartbeat too, like any deployed server.
	cfg.Scheme.Heartbeats = true
	// The unsharded arms serve one tree, which the spot check below reads.
	// The sharded arm draws its query points from its own seed range.
	var tree *rtree.Tree
	seedBase := o.Seed + 700
	if arm == "sharded-4" {
		cfg.Dataset, cfg.Shards = data, 4
		seedBase = o.Seed + 900
	} else {
		var err error
		if tree, err = buildTree(data); err != nil {
			return knnResult{}, err
		}
		cfg.PrebuiltTree = tree
	}
	d, err := cluster.Deploy(cfg)
	if err != nil {
		return knnResult{}, err
	}
	lat := stats.NewHistogram()
	err = d.Drive(func(i int, p *sim.Proc) error {
		c := d.On(i, p)
		rng := rand.New(rand.NewSource(seedBase + int64(i)))
		for r := 0; r < o.Requests; r++ {
			x, y := rng.Float64(), rng.Float64()
			start := p.Now()
			nbrs, _, err := c.Nearest(k, x, y)
			if err != nil {
				return err
			}
			lat.Record(p.Now() - start)
			d.Count(p, 1)
			if tree != nil && r%50 == 0 {
				// Equivalence spot check: the remote answer must be the
				// local best-first answer, bit for bit. The sim is
				// cooperative, so reading the (static) tree here races
				// with nothing.
				want, _, err := tree.Nearest(k, x, y)
				if err != nil {
					return err
				}
				if err := sameNeighbors(nbrs, want); err != nil {
					return fmt.Errorf("remote kNN diverged from local at (%g, %g): %w", x, y, err)
				}
			}
		}
		return nil
	}, nil)
	if err != nil {
		return knnResult{}, err
	}
	res := d.Result()
	out := knnResult{kops: res.Kops, lat: lat.Summarize(), fanout: 1}
	if tree == nil {
		out.fanout = res.FanoutPerSearch
	}
	if n := res.Client.FastSearches + res.Client.FetchSearches; n > 0 {
		out.fetchFrac = float64(res.Client.FetchSearches) / float64(n)
	}
	return out, nil
}

// sameNeighbors reports the first divergence between two neighbor lists.
func sameNeighbors(got, want []rtree.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbors, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("neighbor %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// AblationHotspot replays a flash-crowd trace — Zipfian spatial hotspots
// whose hottest cell migrates abruptly between phases — against static
// deployments and the autoscaler, on real localhost TCP. Broad hotspot
// scans saturate the hot shard's paced TX line; a static partition cannot
// follow the crowd, while the autoscaler splits whichever cell runs hot,
// so the flash-crowd p99 (ops after the first migration) is the claim:
// autoscaling cuts it well below static-1 without overprovisioning like
// static-4 everywhere. The geo serving mix rides along: position MOVEs
// (upserts into the live tree) and kNN queries at the hotspot.
func AblationHotspot(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	n := o.DatasetSize
	if n > 20000 {
		n = 20000
	}
	rng := rand.New(rand.NewSource(o.Seed))
	data := make([]rtree.Entry, n)
	for i := range data {
		data[i] = rtree.Entry{
			Rect: randRectIn(rng, geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0.005),
			Ref:  uint64(i),
		}
	}
	loaders := 16
	// Long enough phases that the steady crowd, not the handful of ops
	// stalled behind each reshard, decides the post-migration p99.
	opsPerLoader := o.Requests * 9
	if opsPerLoader > 7500 {
		opsPerLoader = 7500
	}
	const (
		deadline = 5 * time.Millisecond
		slo      = 5 * time.Millisecond
	)
	hb := elasticHeartbeat(o)
	table := stats.NewTable("mode", "finalK", "splits", "ops", "viol%", "overloaded",
		"p99_us", "crowd_p99_us", "hotshard")
	run := func(mode string, staticK int) error {
		// MaxK leaves headroom beyond the first hotspot's splits (the crowd
		// migrates twice more, and a controller that spent its whole split
		// budget on phase 0 cannot chase it), but not much more: every
		// split stalls in-flight ops while the peeled half streams over,
		// so an over-eager policy buys its extra shards with a reshard
		// tail that swamps the p99 it was meant to cut.
		r, err := runElastic(o, data, staticK, loaders, autoscale.PolicyConfig{
			ScaleUpUtil: 0.8,
			MaxK:        8,
			Cooldown:    25 * hb,
			TXOnly:      true,
		}, deadline, slo, hotspotLoad(o, opsPerLoader))
		if err != nil {
			return fmt.Errorf("ablation hotspot %s: %w", mode, err)
		}
		table.AddRow(mode,
			fmt.Sprintf("%d", r.finalK),
			fmt.Sprintf("%d", r.splits),
			fmt.Sprintf("%d", r.ops),
			fmt.Sprintf("%.2f", 100*float64(r.violations)/float64(max(r.ops, 1))),
			fmt.Sprintf("%d", r.overloaded),
			fmtDur(r.p99),
			fmtDur(r.crowdP99),
			fmt.Sprintf("%d", hotOwner(o, r.m)))
		return nil
	}
	for _, k := range []int{1, 4} {
		if err := run(fmt.Sprintf("static-%d", k), k); err != nil {
			return nil, err
		}
	}
	if err := run("autoscale", 0); err != nil {
		return nil, err
	}
	return table, nil
}

// hotspotPhases is the flash-crowd trace length: the hotspot migrates at
// every phase boundary, so phases 1.. are the post-crowd regime whose p99
// the ablation reports.
const hotspotPhases = 3

// hotspotGrid is the Zipf sampler's cell grid (16 cells at 4×4: coarse
// enough that one cell carries a real hotspot, fine enough that a split
// isolates it).
const hotspotGrid = 4

// phaseGrid is the flash crowd's Zipf grid in one phase. Every loader
// derives it from the same seed, so the whole fleet agrees on where the
// crowd is — that agreement is what makes it a flash crowd — while each
// samples from its own instance (rand.Zipf is not goroutine-safe).
func phaseGrid(o Options, phase int) *scenario.ZipfGrid {
	return scenario.NewZipfGrid(rand.New(rand.NewSource(o.Seed*31+int64(phase))), hotspotGrid, 1.4)
}

// hotOwner is the shard of m that owns the last phase's hot cell.
func hotOwner(o Options, m *shard.Map) int {
	return m.Owner(geo.PointRect(phaseGrid(o, hotspotPhases-1).HotCell().Center()))
}

// hotspotLoad is one loader's flash-crowd replay: broad scans at the
// phase's hotspot, courier MOVEs, kNN at the hotspot and uniform scans.
func hotspotLoad(o Options, opsPerLoader int) func(li int, r *rpcnet.Router, log *opLog) error {
	return func(li int, r *rpcnet.Router, log *opLog) error {
		rng := rand.New(rand.NewSource(o.Seed + 2000 + int64(li)))
		// Each loader's courier fleet: MOVEs are upserts, so the first
		// move of each object inserts it into the live tree.
		fleet := scenario.NewMovingObjects(rng, scenario.MovingConfig{
			N: 64, RefBase: uint64(1<<30) + uint64(li)<<20,
		})
		var pending []scenario.Move
		for phase := 0; phase < hotspotPhases; phase++ {
			grid := phaseGrid(o, phase)
			for i := 0; i < opsPerLoader/hotspotPhases; i++ {
				t0 := time.Now()
				var err error
				switch draw := rng.Float64(); {
				case draw < 0.70:
					// The crowd: broad scans at the hotspot saturate the
					// hot shard's TX line.
					x, y := grid.Point(rng)
					_, _, err = r.Search(randRectIn(rng, geo.PointRect(x, y), 0.07))
				case draw < 0.80:
					// Courier position updates ride along.
					if len(pending) == 0 {
						pending = fleet.Tick(rng, pending)
					}
					mv := pending[len(pending)-1]
					pending = pending[:len(pending)-1]
					err = r.Move(mv.From, mv.To, mv.Ref)
				case draw < 0.90:
					// "Nearest drivers" at the hotspot.
					x, y := grid.Point(rng)
					_, _, err = r.Nearest(8, x, y)
				default:
					q := randRectIn(rng, geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0.03)
					_, _, err = r.Search(q)
				}
				if err := log.record(phase, t0, err); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
