package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	tests := []struct {
		name           string
		x1, y1, x2, y2 float64
		want           Rect
	}{
		{"ordered", 0, 0, 1, 1, Rect{0, 1, 0, 1}},
		{"xSwapped", 1, 0, 0, 1, Rect{0, 1, 0, 1}},
		{"ySwapped", 0, 1, 1, 0, Rect{0, 1, 0, 1}},
		{"bothSwapped", 1, 1, 0, 0, Rect{0, 1, 0, 1}},
		{"point", 0.5, 0.5, 0.5, 0.5, Rect{0.5, 0.5, 0.5, 0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewRect(tt.x1, tt.y1, tt.x2, tt.y2)
			if !got.Equal(tt.want) {
				t.Errorf("NewRect(%v,%v,%v,%v) = %v, want %v",
					tt.x1, tt.y1, tt.x2, tt.y2, got, tt.want)
			}
			if !got.Valid() {
				t.Errorf("NewRect result %v not valid", got)
			}
		})
	}
}

func TestValid(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"unit", Rect{0, 1, 0, 1}, true},
		{"point", Rect{1, 1, 1, 1}, true},
		{"invertedX", Rect{1, 0, 0, 1}, false},
		{"invertedY", Rect{0, 1, 1, 0}, false},
		{"nan", Rect{math.NaN(), 1, 0, 1}, false},
		{"nanMax", Rect{0, 1, 0, math.NaN()}, false},
	}
	for _, tt := range tests {
		if got := tt.r.Valid(); got != tt.want {
			t.Errorf("%s: Valid(%v) = %v, want %v", tt.name, tt.r, got, tt.want)
		}
	}
}

func TestAreaMargin(t *testing.T) {
	r := Rect{0, 2, 0, 3}
	if got := r.Area(); got != 6 {
		t.Errorf("Area = %v, want 6", got)
	}
	if got := r.Margin(); got != 5 {
		t.Errorf("Margin = %v, want 5", got)
	}
	if got := PointRect(1, 1).Area(); got != 0 {
		t.Errorf("point Area = %v, want 0", got)
	}
}

func TestIntersects(t *testing.T) {
	base := Rect{0, 1, 0, 1}
	tests := []struct {
		name string
		s    Rect
		want bool
	}{
		{"overlap", Rect{0.5, 1.5, 0.5, 1.5}, true},
		{"contained", Rect{0.25, 0.75, 0.25, 0.75}, true},
		{"containing", Rect{-1, 2, -1, 2}, true},
		{"touchEdge", Rect{1, 2, 0, 1}, true},
		{"touchCorner", Rect{1, 2, 1, 2}, true},
		{"disjointX", Rect{1.5, 2, 0, 1}, false},
		{"disjointY", Rect{0, 1, 1.5, 2}, false},
		{"same", base, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := base.Intersects(tt.s); got != tt.want {
				t.Errorf("Intersects(%v, %v) = %v, want %v", base, tt.s, got, tt.want)
			}
			// Intersection must be symmetric.
			if got := tt.s.Intersects(base); got != tt.want {
				t.Errorf("Intersects not symmetric for %v", tt.s)
			}
		})
	}
}

// refIntersects is Intersects as it stood before its comparisons were
// combined without short-circuiting: the oracle for every search that
// tests entries with it.
func refIntersects(r, s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// TestIntersectsMatchesReference: over rectangle pairs whose coordinates
// are drawn from signed zeros, infinities, NaN, shared edges and ordinary
// values, Intersects agrees with the short-circuit reference.
func TestIntersectsMatchesReference(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), math.NaN(), -1, 0.25, 0.5, 1}
	rng := rand.New(rand.NewSource(36))
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 200_000; i++ {
		r := Rect{pick(), pick(), pick(), pick()}
		s := Rect{pick(), pick(), pick(), pick()}
		if got, want := r.Intersects(s), refIntersects(r, s); got != want {
			t.Fatalf("Intersects(%v, %v) = %v, reference %v", r, s, got, want)
		}
	}
}

func TestContains(t *testing.T) {
	outer := Rect{0, 10, 0, 10}
	if !outer.Contains(Rect{1, 9, 1, 9}) {
		t.Error("outer should contain inner")
	}
	if !outer.Contains(outer) {
		t.Error("rect should contain itself")
	}
	if outer.Contains(Rect{1, 11, 1, 9}) {
		t.Error("outer should not contain rect poking out")
	}
	if !outer.ContainsPoint(10, 10) {
		t.Error("boundary point should be contained")
	}
	if outer.ContainsPoint(10.01, 5) {
		t.Error("outside point should not be contained")
	}
}

func TestUnionIntersection(t *testing.T) {
	a := Rect{0, 2, 0, 2}
	b := Rect{1, 3, 1, 3}
	u := a.Union(b)
	if !u.Equal(Rect{0, 3, 0, 3}) {
		t.Errorf("Union = %v", u)
	}
	i, ok := a.Intersection(b)
	if !ok || !i.Equal(Rect{1, 2, 1, 2}) {
		t.Errorf("Intersection = %v ok=%v", i, ok)
	}
	if _, ok := a.Intersection(Rect{5, 6, 5, 6}); ok {
		t.Error("disjoint Intersection should report ok=false")
	}
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
	if got := a.OverlapArea(Rect{5, 6, 5, 6}); got != 0 {
		t.Errorf("disjoint OverlapArea = %v, want 0", got)
	}
}

// TestMinMaxMatchMath pins the builtin min/max that Union, Intersection and
// OverlapArea use bit-equal to math.Min/math.Max on signed zeros, infinities
// and ordinary values. The two differ only on NaN, which Valid rejects.
func TestMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{negZero, 0, math.Inf(-1), math.Inf(1), -1.5, 0.25, 1, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := min(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("min(%v, %v) = %v, math.Min = %v", a, b, got, want)
			}
			if got, want := max(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("max(%v, %v) = %v, math.Max = %v", a, b, got, want)
			}
			r, s := Rect{a, a, a, a}, Rect{b, b, b, b}
			want := Rect{math.Min(a, b), math.Max(a, b), math.Min(a, b), math.Max(a, b)}
			if u := r.Union(s); !sameBits(u, want) {
				t.Errorf("Union(%v, %v) = %v, want %v", r, s, u, want)
			}
		}
	}
}

func sameBits(a, b Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

func TestEnlargement(t *testing.T) {
	a := Rect{0, 1, 0, 1}
	if got := a.Enlargement(Rect{0.2, 0.8, 0.2, 0.8}); got != 0 {
		t.Errorf("Enlargement for contained rect = %v, want 0", got)
	}
	if got := a.Enlargement(Rect{0, 2, 0, 1}); got != 1 {
		t.Errorf("Enlargement = %v, want 1", got)
	}
}

func TestMBR(t *testing.T) {
	if got := MBR(nil); !got.Equal(Rect{}) {
		t.Errorf("MBR(nil) = %v, want zero", got)
	}
	rects := []Rect{{0, 1, 0, 1}, {2, 3, -1, 0.5}, {0.5, 0.6, 0.5, 4}}
	got := MBR(rects)
	want := Rect{0, 3, -1, 4}
	if !got.Equal(want) {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	for _, r := range rects {
		if !got.Contains(r) {
			t.Errorf("MBR %v does not contain member %v", got, r)
		}
	}
}

func randomRect(rng *rand.Rand) Rect {
	return NewRect(rng.Float64()*10-5, rng.Float64()*10-5,
		rng.Float64()*10-5, rng.Float64()*10-5)
}

// Property: union contains both operands and is the smallest such rect on
// each axis.
func TestPropUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomRect(rng), randomRect(rng)
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		// Minimality: each side of u must coincide with a side of a or b.
		return (u.MinX == a.MinX || u.MinX == b.MinX) &&
			(u.MaxX == a.MaxX || u.MaxX == b.MaxX) &&
			(u.MinY == a.MinY || u.MinY == b.MinY) &&
			(u.MaxY == a.MaxY || u.MaxY == b.MaxY)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Intersects is consistent with a positive-or-touching overlap
// region, and OverlapArea equals Intersection area.
func TestPropIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomRect(rng), randomRect(rng)
		i, ok := a.Intersection(b)
		if ok != a.Intersects(b) {
			return false
		}
		if !ok {
			return a.OverlapArea(b) == 0
		}
		if !i.Valid() || !a.Contains(i) || !b.Contains(i) {
			return false
		}
		return math.Abs(a.OverlapArea(b)-i.Area()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: enlargement is non-negative and zero iff contained.
func TestPropEnlargement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randomRect(rng), randomRect(rng)
		e := a.Enlargement(b)
		if e < 0 {
			return false
		}
		if a.Contains(b) && e != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersects(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	rects := make([]Rect, 1024)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	q := Rect{-1, 1, -1, 1}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if q.Intersects(rects[i%len(rects)]) {
			n++
		}
	}
	_ = n
}

func BenchmarkUnion(b *testing.B) {
	a := Rect{0, 1, 0, 1}
	c := Rect{0.5, 2, -1, 0.5}
	var out Rect
	for i := 0; i < b.N; i++ {
		out = a.Union(c)
	}
	_ = out
}

// Intersection returns the overlapping region of r and s and whether the
// two rectangles intersect at all. When they do not, the zero Rect is
// returned.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MaxX: min(r.MaxX, s.MaxX),
		MinY: max(r.MinY, s.MinY),
		MaxY: min(r.MaxY, s.MaxY),
	}, true
}
