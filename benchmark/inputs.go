package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"time"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/scenario"
	"github.com/catfish-db/catfish/internal/workload"
)

// scale sizes a run. fullScale is what the driver measures; the unit tests
// shrink it so each workload smokes in a fraction of a second.
type scale struct {
	items       int           // uniform rectangles behind point-fast, scan-fast, point-offload
	movers      int           // fleet size behind moving-fleet
	scanEdge    float64       // scan-fast window edge (≈500 results at the full item count)
	nodeCache   int           // point-offload client cache capacity, in nodes
	setups      int           // set-ups timed per run; setup_s is their median
	sliceLen    time.Duration // the window is cut into slices of this length; see steady
	warmupShare float64       // warm-up length as a share of the window
	queries     int           // pre-generated search windows per reader (cycled if exhausted)
	writeMoves  int           // MOVEs in the quiesced write pass of the search workloads
	writeGroup  int           // the write pass is cut into groups of this many ops
	verify      int           // sampled searches in the correctness pass
	verifyKNN   int           // sampled Nearest(10) calls in the correctness pass
	minTail     int           // samples required beyond a reported percentile
	moveRate    int           // MOVEs/s to pre-generate for moving-fleet
	probeShrink int           // divides every probe's iteration count (1 in real runs)
}

var fullScale = scale{
	items:       1_000_000,
	movers:      200_000,
	scanEdge:    0.0224,
	nodeCache:   128,
	setups:      3,
	sliceLen:    time.Second,
	warmupShare: 0.3,
	queries:     1 << 19,
	writeMoves:  10_000,
	writeGroup:  1_210, // 1100 MOVEs + 110 kNN: ten samples beyond the MOVE p99
	verify:      200,
	verifyKNN:   20,
	minTail:     10,
	moveRate:    15_000,
	probeShrink: 1,
}

const (
	datasetEdge  = 1e-4  // the paper's §V-A rectangle edge bound
	pointEdge    = 0.002 // ≈4.5 results on 1M rectangles
	nearbySpan   = 0.005 // moving-fleet "what is around this vehicle" window
	insertRate   = 500   // point-offload paced writer, inserts/s
	nearbyEvery  = 3     // moving-fleet: one nearby search per this many MOVE-client ops
	knnK         = 10
	knnEvery     = 10 // one Nearest after every 10th MOVE
	insertRefOff = 1 << 40
)

// inputs is everything a run feeds the system, generated from the seed
// before any window opens.
type inputs struct {
	Queries []geo.Rect      // reader search windows
	Inserts []geo.Rect      // point-offload: paced writer rectangles
	MoveRef []uint64        // search workloads: write-pass refs…
	MoveTo  []geo.Rect      // …and their destinations
	KNN     [][2]float64    // kNN query points
	Verify  []geo.Rect      // correctness-pass windows
	Moves   []scenario.Move // moving-fleet: pre-generated prefix of the MOVE stream

	// Only the MOVE client touches these after generation, so it may tick
	// the fleet again if a fast machine outruns the pre-generated prefix.
	fleet *scenario.MovingObjects
	rng   *rand.Rand
}

func fixedWindow(rng *rand.Rand, edge float64) geo.Rect {
	x := rng.Float64() * (1 - edge)
	y := rng.Float64() * (1 - edge)
	return geo.Rect{MinX: x, MinY: y, MaxX: x + edge, MaxY: y + edge}
}

func datasetSeed(seed int64) int64 { return seed*7919 + 1 }

// genInputs derives a workload's request streams from the seed. fleet is
// the moving-fleet's freshly seeded mover set (nil elsewhere); window is
// the measured length in seconds, which sizes the paced and MOVE streams.
func genInputs(name string, seed int64, sc scale, fleet *scenario.MovingObjects, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	in := &inputs{rng: rng}
	total := seconds * (1 + sc.warmupShare)
	edge := pointEdge
	if name == "scan-fast" {
		edge = sc.scanEdge
	}
	switch name {
	case "moving-fleet":
		in.Queries = make([]geo.Rect, sc.queries)
		for i := range in.Queries {
			in.Queries[i] = fleet.Nearby(rng.Intn(fleet.Len()), nearbySpan)
		}
		in.fleet = fleet
		want := int(float64(sc.moveRate) * total)
		for len(in.Moves) < want {
			in.Moves = append(in.Moves, fleet.Tick(rng, nil)...)
		}
		in.KNN = make([][2]float64, want/knnEvery+sc.verifyKNN+1)
	default:
		in.Queries = make([]geo.Rect, sc.queries)
		for i := range in.Queries {
			in.Queries[i] = fixedWindow(rng, edge)
		}
		if name == "point-offload" {
			gen := workload.SkewedInserts{Edge: datasetEdge}
			in.Inserts = make([]geo.Rect, int(insertRate*total)+insertRate)
			for i := range in.Inserts {
				in.Inserts[i] = gen.Next(rng)
			}
		}
		in.MoveRef = make([]uint64, sc.writeMoves)
		in.MoveTo = make([]geo.Rect, sc.writeMoves)
		for i := range in.MoveRef {
			in.MoveRef[i] = uint64(rng.Intn(sc.items))
			in.MoveTo[i] = fixedWindow(rng, datasetEdge*rng.Float64())
		}
		in.KNN = make([][2]float64, sc.writeMoves/knnEvery+sc.verifyKNN+1)
	}
	for i := range in.KNN {
		in.KNN[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	in.Verify = make([]geo.Rect, sc.verify)
	for i := range in.Verify {
		switch {
		case name == "moving-fleet":
			in.Verify[i] = fixedWindow(rng, nearbySpan)
		case i%4 == 3 && len(in.MoveTo) > 0:
			// Land a quarter of the checks on entries the write pass moved.
			to := in.MoveTo[rng.Intn(len(in.MoveTo))]
			in.Verify[i] = geo.Rect{MinX: to.MinX, MinY: to.MinY, MaxX: to.MinX + edge/2, MaxY: to.MinY + edge/2}
		default:
			in.Verify[i] = fixedWindow(rng, edge)
		}
	}
	return in
}

// digest hashes every generated stream; equal seeds must give equal digests.
func (in *inputs) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, v := range []any{in.Queries, in.Inserts, in.MoveRef, in.MoveTo, in.KNN, in.Verify} {
		_ = binary.Write(h, binary.LittleEndian, v) // hash.Hash never fails a write
	}
	for _, m := range in.Moves {
		_ = binary.Write(h, binary.LittleEndian, m)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
