// Package geo provides the 2-dimensional geometric primitives used by the
// R-tree: axis-aligned rectangles with double-precision coordinates, and the
// area/margin/overlap computations the R*-tree algorithms are built on.
//
// All coordinates follow the paper's convention: the data space is the unit
// square [0, 1]², and a rectangle is stored as min(x), max(x), min(y),
// max(y) — four float64 values (32 bytes).
package geo

import (
	"fmt"
	"math"
)

// Rect is a closed, axis-aligned rectangle. A Rect is valid when
// MinX <= MaxX and MinY <= MaxY; degenerate rectangles (points and
// segments) are valid.
type Rect struct {
	MinX, MaxX, MinY, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the coordinate order so the result is always valid.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MaxX: x2, MinY: y1, MaxY: y2}
}

// PointRect returns the degenerate rectangle covering exactly the point
// (x, y).
func PointRect(x, y float64) Rect {
	return Rect{MinX: x, MaxX: x, MinY: y, MaxY: y}
}

// Valid reports whether r has non-inverted coordinates and no NaNs.
func (r Rect) Valid() bool {
	if math.IsNaN(r.MinX) || math.IsNaN(r.MaxX) || math.IsNaN(r.MinY) || math.IsNaN(r.MaxY) {
		return false
	}
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles have zero area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r (the R*-tree "margin" metric).
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r.
func (r Rect) Center() (x, y float64) {
	return (r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2
}

// Intersects reports whether r and s share at least one point. Touching
// edges count as intersection, matching the paper's overlap semantics for
// "all overlapped rectangles are expected to be returned".
//
// The four comparisons are combined without short-circuiting: a search
// scans every entry of a node, and whether an entry intersects is data the
// branch predictor cannot learn, so one branch on the combined outcome
// beats up to four mispredicted ones. A NaN coordinate fails its
// comparisons either way.
func (r Rect) Intersects(s Rect) bool {
	return b2i(r.MinX <= s.MaxX)&b2i(s.MinX <= r.MaxX)&
		b2i(r.MinY <= s.MaxY)&b2i(s.MinY <= r.MaxY) != 0
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether the point (x, y) lies inside or on the
// boundary of r.
func (r Rect) ContainsPoint(x, y float64) bool {
	return r.MinX <= x && x <= r.MaxX && r.MinY <= y && y <= r.MaxY
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MaxX: max(r.MaxX, s.MaxX),
		MinY: min(r.MinY, s.MinY),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// OverlapArea returns the area of the intersection of r and s, or 0 when
// they do not intersect.
func (r Rect) OverlapArea(s Rect) float64 {
	iw := min(r.MaxX, s.MaxX) - max(r.MinX, s.MinX)
	if iw <= 0 {
		return 0
	}
	ih := min(r.MaxY, s.MaxY) - max(r.MinY, s.MinY)
	if ih <= 0 {
		return 0
	}
	return iw * ih
}

// Enlargement returns the area increase of r needed to also cover s:
// Area(r ∪ s) − Area(r). The result is never negative for valid inputs.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Equal reports exact coordinate equality of r and s.
func (r Rect) Equal(s Rect) bool {
	return r.MinX == s.MinX && r.MaxX == s.MaxX &&
		r.MinY == s.MinY && r.MaxY == s.MaxY
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// DistSqToPoint returns the squared Euclidean distance from the point
// (x, y) to the nearest point of r (0 when the point lies inside r). The
// squared form avoids the sqrt on the R-tree's nearest-neighbor hot path.
func (r Rect) DistSqToPoint(x, y float64) float64 {
	dx := 0.0
	if x < r.MinX {
		dx = r.MinX - x
	} else if x > r.MaxX {
		dx = x - r.MaxX
	}
	dy := 0.0
	if y < r.MinY {
		dy = r.MinY - y
	} else if y > r.MaxY {
		dy = y - r.MaxY
	}
	return dx*dx + dy*dy
}

// MBR returns the minimum bounding rectangle of rects. It returns the zero
// Rect when rects is empty.
func MBR(rects []Rect) Rect {
	if len(rects) == 0 {
		return Rect{}
	}
	out := rects[0]
	for _, r := range rects[1:] {
		out = out.Union(r)
	}
	return out
}
