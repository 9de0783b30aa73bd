// Package scenario turns the repo into a geo serving testbed (DESIGN.md
// §5.13): a fleet of moving objects updating their positions through
// first-class MOVE operations, nearby-window and k-nearest-neighbor query
// generation around those objects, and skewed spatial traffic — Zipfian
// hotspots over grid cells — to drive the autoscaler and resharder the way
// a real geo service (ride hailing, fleet tracking, "restaurants near me")
// would.
//
// Every generator draws from a caller-provided *rand.Rand, so a scenario
// replays deterministically under a seed and each simulated or real loader
// gets an independent stream.
package scenario

import (
	"math"
	"math/rand"

	"github.com/catfish-db/catfish/internal/geo"
	"github.com/catfish-db/catfish/internal/rtree"
)

// Move is one position update: the entry (From, Ref) relocates to (To,
// Ref). It maps 1:1 onto wire.MsgMove / Client.Move on both transports.
type Move struct {
	From, To geo.Rect
	Ref      uint64
}

// MovingObjects is a fleet of point objects — vehicles, couriers, phones —
// random-walking the unit square. Each Tick advances every object by one
// step of its velocity and emits the corresponding MOVE operations;
// objects reflect off the data-space boundary so the fleet never leaves
// the unit square.
type MovingObjects struct {
	// X, Y are the current positions, indexed by object.
	X, Y []float64
	// vx, vy are per-object velocities in unit-square units per tick.
	vx, vy []float64
	// refBase offsets the object index into the entry ref space, so a
	// fleet can coexist with a static dataset.
	refBase uint64
}

// objectEdge is the indexed rectangle's edge length: objects are near-point
// rects, like the paper's street segments.
const objectEdge = 1e-5

// MovingConfig shapes a fleet.
type MovingConfig struct {
	// N is the object count.
	N int
	// Speed is the per-tick step length drawn uniform in (0, Speed]
	// (default 0.002 — a vehicle crossing the city in ~500 ticks).
	Speed float64
	// RefBase offsets object refs (default 0).
	RefBase uint64
}

// NewMovingObjects scatters a fleet uniformly with uniformly-oriented
// velocities drawn from rng.
func NewMovingObjects(rng *rand.Rand, cfg MovingConfig) *MovingObjects {
	if cfg.Speed == 0 {
		cfg.Speed = 0.002
	}
	m := &MovingObjects{
		X:       make([]float64, cfg.N),
		Y:       make([]float64, cfg.N),
		vx:      make([]float64, cfg.N),
		vy:      make([]float64, cfg.N),
		refBase: cfg.RefBase,
	}
	for i := 0; i < cfg.N; i++ {
		m.X[i] = rng.Float64()
		m.Y[i] = rng.Float64()
		speed := rng.Float64() * cfg.Speed
		theta := rng.Float64() * 2 * math.Pi
		m.vx[i] = speed * math.Cos(theta)
		m.vy[i] = speed * math.Sin(theta)
	}
	return m
}

// Len returns the fleet size.
func (m *MovingObjects) Len() int { return len(m.X) }

// Ref returns object i's entry ref.
func (m *MovingObjects) Ref(i int) uint64 { return m.refBase + uint64(i) }

// Rect returns the indexed rectangle of object i at its current position.
func (m *MovingObjects) Rect(i int) geo.Rect {
	return m.rectAt(m.X[i], m.Y[i])
}

func (m *MovingObjects) rectAt(x, y float64) geo.Rect {
	return geo.Rect{MinX: x, MinY: y,
		MaxX: math.Min(x+objectEdge, 1), MaxY: math.Min(y+objectEdge, 1)}
}

// Seed returns the fleet's initial entries, for bulk loading or streaming
// inserts before the first tick.
func (m *MovingObjects) Seed() []rtree.Entry {
	out := make([]rtree.Entry, m.Len())
	for i := range out {
		out[i] = rtree.Entry{Rect: m.Rect(i), Ref: m.Ref(i)}
	}
	return out
}

// Tick advances every object one step and appends its MOVE to out
// (reused when non-nil). Objects reflect off the unit-square walls; rng
// injects a small heading jitter so trajectories decorrelate over time.
func (m *MovingObjects) Tick(rng *rand.Rand, out []Move) []Move {
	out = out[:0]
	for i := range m.X {
		from := m.Rect(i)
		x := m.X[i] + m.vx[i]
		y := m.Y[i] + m.vy[i]
		if x < 0 {
			x, m.vx[i] = -x, -m.vx[i]
		} else if x > 1 {
			x, m.vx[i] = 2-x, -m.vx[i]
		}
		if y < 0 {
			y, m.vy[i] = -y, -m.vy[i]
		} else if y > 1 {
			y, m.vy[i] = 2-y, -m.vy[i]
		}
		// ~1% per-tick heading perturbation: enough to break the perfect
		// billiard orbits, small enough to keep trajectories smooth.
		m.vx[i] += (rng.Float64() - 0.5) * 0.02 * m.vx[i]
		m.vy[i] += (rng.Float64() - 0.5) * 0.02 * m.vy[i]
		m.X[i], m.Y[i] = x, y
		out = append(out, Move{From: from, To: m.Rect(i), Ref: m.Ref(i)})
	}
	return out
}

// Nearby returns a nearby-window query rect of the given span centered on
// object i — "what's around this vehicle right now".
func (m *MovingObjects) Nearby(i int, span float64) geo.Rect {
	x, y := m.X[i], m.Y[i]
	return geo.Rect{
		MinX: math.Max(x-span/2, 0), MaxX: math.Min(x+span/2, 1),
		MinY: math.Max(y-span/2, 0), MaxY: math.Min(y+span/2, 1),
	}
}

// ZipfGrid samples query points with Zipfian spatial skew: the unit square
// is divided into Grid×Grid cells, a random permutation assigns each cell
// a popularity rank, and points are drawn by sampling a rank from a Zipf
// distribution and then a uniform position inside the ranked cell. The
// rank-1 cell is the hotspot; a grid drawn from another seed puts it
// elsewhere, which is how the hotspot ablation stages a flash crowd.
type ZipfGrid struct {
	grid int
	zipf *rand.Zipf
	perm []int // rank -> cell index
}

// NewZipfGrid builds a sampler over grid×grid cells with Zipf exponent s
// (> 1; larger is more skewed — 1.2 puts roughly half the traffic in the
// top few cells). The permutation and all sampling use rng.
func NewZipfGrid(rng *rand.Rand, grid int, s float64) *ZipfGrid {
	if grid < 1 {
		grid = 1
	}
	if s <= 1 {
		s = 1.2
	}
	return &ZipfGrid{
		grid: grid,
		zipf: rand.NewZipf(rng, s, 1, uint64(grid*grid-1)),
		perm: rng.Perm(grid * grid),
	}
}

// HotCell returns the current rank-1 (hottest) cell as a rect.
func (z *ZipfGrid) HotCell() geo.Rect {
	return z.cellRect(z.perm[0])
}

func (z *ZipfGrid) cellRect(cell int) geo.Rect {
	cw := 1.0 / float64(z.grid)
	cx := float64(cell%z.grid) * cw
	cy := float64(cell/z.grid) * cw
	return geo.Rect{MinX: cx, MinY: cy, MaxX: cx + cw, MaxY: cy + cw}
}

// Point samples one query point: Zipf rank → permuted cell → uniform
// position inside it.
func (z *ZipfGrid) Point(rng *rand.Rand) (x, y float64) {
	cell := z.cellRect(z.perm[z.zipf.Uint64()])
	return cell.MinX + rng.Float64()*cell.Width(), cell.MinY + rng.Float64()*cell.Height()
}
