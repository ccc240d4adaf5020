package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY],
// reported with query results as the public nwcq.Rect (an alias); its
// tags are the names it has on the wire. The zero value is the degenerate
// rectangle at the origin; use EmptyRect for the identity of Union.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// EmptyRect returns the canonical empty rectangle: Min components +Inf,
// Max components -Inf. It is the identity element of Union, contains no
// point, and intersects nothing.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewRect returns the rectangle spanning the two corner points in any
// orientation.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectAround returns the degenerate rectangle covering exactly point p.
func RectAround(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// IsEmpty reports whether r contains no point (Min exceeds Max on either
// axis).
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Width returns the x extent of r (the paper's "length" axis).
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the y extent of r (the paper's "width" axis).
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r, 0 for empty rectangles.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Margin returns half the perimeter of r (the R*-tree split criterion).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() + r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// ContainsPoint reports whether p lies in the closed rectangle r.
// Boundary points count as contained, matching the paper's closed-window
// semantics.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether o is entirely inside r. Every rectangle
// contains the empty rectangle.
func (r Rect) ContainsRect(o Rect) bool {
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= r.MinX && o.MaxX <= r.MaxX && o.MinY >= r.MinY && o.MaxY <= r.MaxY
}

// Intersects reports whether r and o share at least one point (closed
// semantics: touching edges intersect).
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Intersection returns the common region of r and o, which is empty when
// they do not intersect. It and Union use the builtin min and max,
// which compile inline and order −0 below +0 as math.Min and math.Max
// do; a NaN gives a NaN even beside an infinity, where math.Min(−Inf,
// NaN) is −Inf. Coordinates are finite, so no bound meets one.
func (r Rect) Intersection(o Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, o.MinX),
		MinY: max(r.MinY, o.MinY),
		MaxX: min(r.MaxX, o.MaxX),
		MaxY: min(r.MaxY, o.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, o.MinX),
		MinY: min(r.MinY, o.MinY),
		MaxX: max(r.MaxX, o.MaxX),
		MaxY: max(r.MaxY, o.MaxY),
	}
}

// Bounds returns the rectangle a density grid or a shard partition
// covers when none is configured: the bounding box of points, widened by
// 1 on every side when either extent is zero (a grid needs an area), or
// the unit square when there are no points. A point with a non-finite
// coordinate is an error.
//
// The box is the fold of ExtendPoint over points, bit for bit, by direct
// comparisons: an equal coordinate replaces a bound only to give it
// math.Min's or math.Max's sign of zero (−0 is the lesser).
func Bounds(points []Point) (Rect, error) {
	r := EmptyRect()
	for i, p := range points {
		if !(math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64) {
			return Rect{}, fmt.Errorf("point %d has non-finite coordinates", i)
		}
		if p.X < r.MinX || p.X == r.MinX && math.Signbit(p.X) {
			r.MinX = p.X
		}
		if p.X > r.MaxX || p.X == r.MaxX && !math.Signbit(p.X) {
			r.MaxX = p.X
		}
		if p.Y < r.MinY || p.Y == r.MinY && math.Signbit(p.Y) {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY || p.Y == r.MaxY && !math.Signbit(p.Y) {
			r.MaxY = p.Y
		}
	}
	if r.IsEmpty() {
		return NewRect(0, 0, 1, 1), nil
	}
	if r.Width() <= 0 || r.Height() <= 0 {
		r = r.Buffer(1, 1)
	}
	return r, nil
}

// ExtendPoint returns the smallest rectangle covering r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(RectAround(p))
}

// Enlargement returns how much r's area grows to also cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// OverlapArea returns the area shared by r and o.
func (r Rect) OverlapArea(o Rect) float64 {
	return r.Intersection(o).Area()
}

// MinDist returns the minimum Euclidean distance from point q to r — the
// classic MINDIST(q, R) of Roussopoulos et al., and MINDIST(q, qwin) of
// the paper. It is 0 when q is inside r.
func (r Rect) MinDist(q Point) float64 {
	return math.Sqrt(r.MinDist2(q))
}

// MinDist2 returns the squared minimum distance from q to r.
func (r Rect) MinDist2(q Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := IntervalDist(q.X, r.MinX, r.MaxX)
	dy := IntervalDist(q.Y, r.MinY, r.MaxY)
	return dx*dx + dy*dy
}

// MaxDist returns the maximum distance from q to any point of r
// (MAXDIST). Useful for upper-bound reasoning in tests.
func (r Rect) MaxDist(q Point) float64 {
	if r.IsEmpty() {
		return math.Inf(-1)
	}
	dx := math.Max(math.Abs(q.X-r.MinX), math.Abs(q.X-r.MaxX))
	dy := math.Max(math.Abs(q.Y-r.MinY), math.Abs(q.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// Buffer returns r grown by dx on both x sides and dy on both y sides.
func (r Rect) Buffer(dx, dy float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{MinX: r.MinX - dx, MinY: r.MinY - dy, MaxX: r.MaxX + dx, MaxY: r.MaxY + dy}
}

// String implements fmt.Stringer for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
