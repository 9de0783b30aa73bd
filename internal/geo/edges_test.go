package geo

import (
	"math"
	"testing"
)

func TestDegenerateRects(t *testing.T) {
	point := PointRect(0.3, 0.7)
	if !point.Valid() {
		t.Fatal("point rect invalid")
	}
	if point.Area() != 0 || point.Margin() != 0 {
		t.Fatalf("point rect area=%g margin=%g, want 0, 0", point.Area(), point.Margin())
	}
	if x, y := point.Center(); x != 0.3 || y != 0.7 {
		t.Fatalf("point rect center (%g, %g), want (0.3, 0.7)", x, y)
	}
	if !point.ContainsPoint(0.3, 0.7) {
		t.Fatal("point rect does not contain its own point")
	}
	if d := point.DistSqToPoint(0.3, 0.7); d != 0 {
		t.Fatalf("distance of point rect to its own point is %g, want 0", d)
	}

	seg := Rect{MinX: 0.1, MaxX: 0.9, MinY: 0.5, MaxY: 0.5} // horizontal segment
	if !seg.Valid() || seg.Area() != 0 {
		t.Fatalf("segment valid=%v area=%g, want true, 0", seg.Valid(), seg.Area())
	}
	if seg.Margin() != 0.8 {
		t.Fatalf("segment margin %g, want 0.8", seg.Margin())
	}
	// Degenerate rects still intersect what they touch.
	if !seg.Intersects(PointRect(0.5, 0.5)) {
		t.Fatal("segment does not intersect a point lying on it")
	}
	if got := seg.DistSqToPoint(0.5, 0.6); math.Abs(got-0.01) > 1e-15 {
		t.Fatalf("segment distance² %g, want 0.01", got)
	}
}

func TestPointsOnRegionBounds(t *testing.T) {
	r := Rect{MinX: 0.2, MaxX: 0.6, MinY: 0.3, MaxY: 0.7}
	// Corners and edge midpoints are inside (closed rectangle semantics).
	for _, p := range [][2]float64{
		{0.2, 0.3}, {0.6, 0.3}, {0.2, 0.7}, {0.6, 0.7}, // corners
		{0.4, 0.3}, {0.4, 0.7}, {0.2, 0.5}, {0.6, 0.5}, // edge midpoints
	} {
		if !r.ContainsPoint(p[0], p[1]) {
			t.Errorf("boundary point (%g, %g) not contained", p[0], p[1])
		}
		if d := r.DistSqToPoint(p[0], p[1]); d != 0 {
			t.Errorf("boundary point (%g, %g) at distance² %g, want 0", p[0], p[1], d)
		}
	}
	// A rect touching only an edge still intersects (paper overlap
	// semantics: touching counts).
	if !r.Intersects(Rect{MinX: 0.6, MaxX: 0.8, MinY: 0.3, MaxY: 0.7}) {
		t.Error("edge-touching rects do not intersect")
	}
	if !r.Intersects(PointRect(0.2, 0.3)) {
		t.Error("corner-touching point does not intersect")
	}
	// One ULP outside is outside.
	out := math.Nextafter(0.6, 1)
	if r.ContainsPoint(out, 0.5) {
		t.Error("point one ULP past MaxX contained")
	}
}
