package scenario

import (
	"math/rand"
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

func TestMovingObjectsStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMovingObjects(rng, MovingConfig{N: 64, Speed: 0.1})
	var moves []Move
	for tick := 0; tick < 200; tick++ {
		moves = m.Tick(rng, moves)
		if len(moves) != m.Len() {
			t.Fatalf("tick emitted %d moves, want %d", len(moves), m.Len())
		}
		for i, mv := range moves {
			if !mv.To.Valid() || mv.To.MinX < 0 || mv.To.MaxX > 1 || mv.To.MinY < 0 || mv.To.MaxY > 1 {
				t.Fatalf("tick %d object %d left the unit square: %v", tick, i, mv.To)
			}
			if mv.Ref != m.Ref(i) {
				t.Fatalf("object %d emitted ref %d, want %d", i, mv.Ref, m.Ref(i))
			}
		}
	}
}

func TestMovingObjectsDeterministic(t *testing.T) {
	run := func() []Move {
		rng := rand.New(rand.NewSource(7))
		m := NewMovingObjects(rng, MovingConfig{N: 16})
		var moves []Move
		for tick := 0; tick < 50; tick++ {
			moves = m.Tick(rng, nil)
		}
		return moves
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at object %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMovingObjectsMoveChainsAreContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMovingObjects(rng, MovingConfig{N: 8})
	prev := m.Seed()
	for tick := 0; tick < 20; tick++ {
		moves := m.Tick(rng, nil)
		for i, mv := range moves {
			if mv.From != prev[i].Rect {
				t.Fatalf("tick %d object %d: From %v does not chain from previous To %v",
					tick, i, mv.From, prev[i].Rect)
			}
			prev[i].Rect = mv.To
		}
	}
}

func TestZipfGridSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipfGrid(rng, 8, 1.4)
	hot := z.HotCell()
	const n = 20000
	inHot := 0
	for i := 0; i < n; i++ {
		x, y := z.Point(rng)
		if x < 0 || x > 1 || y < 0 || y > 1 {
			t.Fatalf("sample %d outside unit square: (%g, %g)", i, x, y)
		}
		if hot.ContainsPoint(x, y) {
			inHot++
		}
	}
	// The rank-1 cell of a 64-cell Zipf(1.4) draws far more than the
	// uniform 1/64 ≈ 1.6% share; require a conservative 10×.
	if frac := float64(inHot) / n; frac < 0.16 {
		t.Fatalf("hot cell drew %.1f%% of traffic, want >= 16%%", frac*100)
	}
}

func TestZipfGridMigrateMovesHotspot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	z := NewZipfGrid(rng, 8, 1.4)
	before := z.HotCell()
	moved := false
	for i := 0; i < 10; i++ {
		z.Migrate(rng)
		if z.HotCell() != before {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("10 migrations never moved the hotspot")
	}
}

func TestFlashCrowdPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := &FlashCrowd{Grid: NewZipfGrid(rng, 8, 1.4), PhaseOps: 100}
	for i := 0; i < 350; i++ {
		f.Next(rng)
	}
	if f.Phase() != 3 {
		t.Fatalf("350 ops with 100-op phases fired %d migrations, want 3", f.Phase())
	}
}

func TestNearbyWindowCentersOnObject(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMovingObjects(rng, MovingConfig{N: 4})
	for i := 0; i < m.Len(); i++ {
		q := m.Nearby(i, 0.01)
		if !q.Valid() {
			t.Fatalf("object %d nearby window invalid: %v", i, q)
		}
		if !q.ContainsPoint(m.X[i], m.Y[i]) {
			t.Fatalf("object %d at (%g, %g) outside its own window %v", i, m.X[i], m.Y[i], q)
		}
	}
	// Windows clamp at the boundary rather than spilling outside.
	m.X[0], m.Y[0] = 0, 1
	q := m.Nearby(0, 0.5)
	if q.MinX < 0 || q.MaxY > 1 {
		t.Fatalf("boundary window spilled outside the unit square: %v", q)
	}
	var _ geo.Rect = q
}

// FlashCrowd drives a ZipfGrid through a phased trace: every PhaseOps
// samples the hotspot migrates. Sharing one FlashCrowd across loaders is
// not goroutine-safe; give each loader its own (same seed ⇒ same phases).
type FlashCrowd struct {
	// Grid is the underlying skewed sampler.
	Grid *ZipfGrid
	// PhaseOps is the number of samples between migrations.
	PhaseOps int

	ops    int
	phases int
}

// Next samples the next query point, migrating the hotspot at phase
// boundaries.
func (f *FlashCrowd) Next(rng *rand.Rand) (x, y float64) {
	if f.PhaseOps > 0 && f.ops > 0 && f.ops%f.PhaseOps == 0 {
		f.Grid.Migrate(rng)
		f.phases++
	}
	f.ops++
	return f.Grid.Point(rng)
}

// Phase returns how many migrations have fired.
func (f *FlashCrowd) Phase() int { return f.phases }

// Migrate re-permutes the cell ranks — the hotspot jumps to a new random
// cell in one step, with no ramp. This is the flash-crowd event: a stadium
// lets out, a concert starts, and the traffic center of mass moves faster
// than any gradual controller assumption allows.
func (z *ZipfGrid) Migrate(rng *rand.Rand) {
	z.perm = rng.Perm(z.grid * z.grid)
}
