package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
	"github.com/catfish-db/catfish/internal/sim"
	"github.com/catfish-db/catfish/internal/workload"
)

// shift returns r displaced by (dx, dy), its size unchanged.
func shift(r geo.Rect, dx, dy float64) geo.Rect {
	return geo.Rect{MinX: r.MinX + dx, MaxX: r.MaxX + dx, MinY: r.MinY + dy, MaxY: r.MaxY + dy}
}

// TestDeployShardedServerStats drives a K=4 deployment with the two op
// kinds cluster.Run's workload never issues and checks the roll-up sums
// every server counter: the hand-written sum it replaces reported Moves,
// MovesInPlace and KNNs as zero whatever the shards did.
func TestDeployShardedServerStats(t *testing.T) {
	cfg := hybridConfig(SchemeCatfish, 4)
	cfg.Shards = 4
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perClient = 40
	var moves, knns uint64
	err = d.Drive(func(i int, p *sim.Proc) error {
		ops := d.On(i, p)
		rng := rand.New(rand.NewSource(int64(i)))
		for r := 0; r < perClient; r++ {
			if r%2 == 1 {
				if _, _, err := ops.Nearest(3, rng.Float64(), rng.Float64()); err != nil {
					return err
				}
				knns++
				continue
			}
			// Nudge one of this client's own entries; a nudge that stays
			// with its owner is one MOVE on one server.
			e := cfg.Dataset[i*perClient+r]
			to := shift(e.Rect, 1e-5, 1e-5)
			if d.smap.Owner(e.Rect) != d.smap.Owner(to) {
				continue
			}
			if err := ops.Move(e.Rect, to, e.Ref); err != nil {
				return err
			}
			moves++
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := d.Result()
	var subKNNs uint64
	for _, r := range d.routers {
		subKNNs += r.Stats().Fanout
	}
	if moves == 0 || res.ServerStats.Moves != moves {
		t.Errorf("ServerStats.Moves = %d, %d same-owner MOVEs issued", res.ServerStats.Moves, moves)
	}
	if res.ServerStats.MovesInPlace == 0 {
		t.Error("no nudge was written in place")
	}
	// A kNN reaches every shard its best-first gather visits.
	if res.ServerStats.KNNs < knns || res.ServerStats.KNNs != subKNNs {
		t.Errorf("ServerStats.KNNs = %d; %d kNNs issued as %d sub-queries", res.ServerStats.KNNs, knns, subKNNs)
	}
	if res.Client.Moves != res.ServerStats.Moves || res.Client.KNNSearches != res.ServerStats.KNNs {
		t.Errorf("client counters (moves %d, kNNs %d) disagree with the servers' (%d, %d)",
			res.Client.Moves, res.Client.KNNSearches, res.ServerStats.Moves, res.ServerStats.KNNs)
	}
}

// TestDeployDriveReplicated is TestShardedFailoverKillPrimary's check over
// the op kinds cluster.Run's workload never issues: a K=2, R=2 deployment
// is driven with a scripted MOVE / insert / search / kNN mix through
// d.On(i, p), shard 0's primary is killed mid-run, and afterwards every
// acknowledged write — each moved entry at its last acknowledged position,
// each inserted one — must be visible and nothing else. One seed, two runs,
// one result.
func TestDeployDriveReplicated(t *testing.T) {
	run := func() (Result, error) {
		cfg := smallConfig(SchemeCatfish, 4)
		// Wide verify queries, so the replay crosses most of what moved.
		cfg.Workload = workload.NewMix(workload.UniformScale{Scale: 0.1},
			workload.SkewedInserts{Edge: 0.0001}, 0, 1<<32)
		cfg.Shards = 2
		cfg.Replicas = 2
		cfg.FailAfter = 400 * time.Microsecond
		cfg.VerifyQueries = 40
		d, err := Deploy(cfg)
		if err != nil {
			return Result{}, err
		}
		const perClient = 60
		// want is the ground truth: the dataset, updated in place as each
		// driver's moves are acknowledged, plus the acknowledged inserts.
		want := append([]rtree.Entry(nil), cfg.Dataset...)
		err = d.Drive(func(i int, p *sim.Proc) error {
			ops := d.On(i, p)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			for r := 0; r < perClient; r++ {
				switch r % 4 {
				case 0, 2:
					// Each driver moves only its own slice of the dataset:
					// mostly nudges, every third a teleport that may cross
					// the ownership boundary.
					// (By index: another driver's insert may regrow want
					// while this one waits on its move.)
					idx := i*perClient + rng.Intn(perClient)
					e := want[idx]
					to := shift(e.Rect, 1e-5, -1e-5)
					if r%3 == 0 {
						to = shift(e.Rect, rng.Float64()-e.Rect.MinX, rng.Float64()-e.Rect.MinY)
					}
					if err := ops.Move(e.Rect, to, e.Ref); err != nil {
						return err
					}
					want[idx].Rect = to
				case 1:
					e := rtree.Entry{Rect: shift(geo.Rect{MaxX: 1e-4, MaxY: 1e-4}, rng.Float64(), rng.Float64()),
						Ref: 1<<40 + uint64(i)<<32 + uint64(r)}
					if err := ops.Insert(e.Rect, e.Ref); err != nil {
						return err
					}
					want = append(want, e)
				default:
					x, y := rng.Float64(), rng.Float64()
					if _, _, err := ops.Search(shift(geo.Rect{MaxX: 0.01, MaxY: 0.01}, x, y)); err != nil {
						return err
					}
					if _, _, err := ops.Nearest(5, x, y); err != nil {
						return err
					}
				}
				d.Count(p, 1)
			}
			return nil
		}, func(p *sim.Proc) error { return verifySharded(d.On(0, p), cfg, want) })
		return d.Result(), err
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != 4*60 {
		t.Errorf("ops = %d, want 240", a.Ops)
	}
	if a.Makespan <= 400*time.Microsecond {
		t.Errorf("run ended at %v, before the primary was killed", a.Makespan)
	}
	if a.Promotions < 1 {
		t.Error("no promotion recorded after killing a primary")
	}
	if a.ReplRecords == 0 {
		t.Error("no replicated records applied on backups")
	}
	if a.ServerStats.Moves == 0 || a.ServerStats.KNNs == 0 {
		t.Errorf("primaries report %d MOVEs and %d kNNs", a.ServerStats.Moves, a.ServerStats.KNNs)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replicated runs nondeterministic:\na: %+v\nb: %+v", a, b)
	}
}
