package geo

import (
	"math"
	"math/rand"
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

func TestFromLatLonCorners(t *testing.T) {
	cases := []struct {
		lat, lon float64
		x, y     float64
	}{
		{0, 0, 0.5, 0.5},           // null island → center
		{-90, -180, 0, 0},          // south-west corner
		{90, 180, 1, 1},            // north-east corner
		{90, -180, 0, 1},           // north-west corner
		{-90, 180, 1, 0},           // south-east corner
		{-91, -200, 0, 0},          // out-of-range clamps
		{100, 400, 1, 1},           // out-of-range clamps
		{37.7749, -122.4194, 0, 0}, // San Francisco — checked below
	}
	for _, c := range cases[:7] {
		x, y := FromLatLon(c.lat, c.lon)
		if x != c.x || y != c.y {
			t.Errorf("FromLatLon(%g, %g) = (%g, %g), want (%g, %g)", c.lat, c.lon, x, y, c.x, c.y)
		}
	}
	x, y := FromLatLon(37.7749, -122.4194)
	if x <= 0 || x >= 0.5 || y <= 0.5 || y >= 1 {
		t.Errorf("San Francisco mapped to (%g, %g), want north-west quadrant-ish (x<0.5, y>0.5)", x, y)
	}
}

func TestLatLonRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		x, y := rng.Float64(), rng.Float64()
		lat, lon := ToLatLon(x, y)
		if lat < -90 || lat > 90 || lon < -180 || lon > 180 {
			t.Fatalf("(%g, %g) left WGS-84 range: lat=%g lon=%g", x, y, lat, lon)
		}
		x2, y2 := FromLatLon(lat, lon)
		if math.Abs(x2-x) > 1e-12 || math.Abs(y2-y) > 1e-12 {
			t.Fatalf("round trip moved (%g, %g) to (%g, %g)", x, y, x2, y2)
		}
	}
	// The scenario direction too: degrees → unit square → degrees.
	for i := 0; i < 10000; i++ {
		lat := rng.Float64()*180 - 90
		lon := rng.Float64()*360 - 180
		x, y := FromLatLon(lat, lon)
		lat2, lon2 := ToLatLon(x, y)
		if math.Abs(lat2-lat) > 1e-10 || math.Abs(lon2-lon) > 1e-10 {
			t.Fatalf("round trip moved (%g, %g) to (%g, %g)", lat, lon, lat2, lon2)
		}
	}
}
