// Package geom is the planar geometry kernel underneath the NWC query
// engine. It provides points, axis-aligned rectangles, the MINDIST family
// of distance functions used by best-first R-tree traversal, and the
// NWC-specific constructions from the paper: search regions (SR_p), the
// SRR shrink, and the DIP pruning-region test.
//
// All computations are in two-dimensional Euclidean space, matching the
// paper's setting; coordinates are float64.
package geom

import "math"

// Point is a data object: a location in the plane and a caller-owned
// identifier, which the geometry kernel itself never interprets. It is
// the public nwcq.Point (an alias), and its tags are the names it has on
// the wire.
type Point struct {
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	ID uint64  `json:"id"`
}

// Dist returns the Euclidean distance between p and o.
func (p Point) Dist(o Point) float64 {
	return math.Hypot(p.X-o.X, p.Y-o.Y)
}

// Dist2 returns the squared Euclidean distance between p and o. It is the
// preferred form in hot paths: it avoids the square root and is exact for
// comparisons.
func (p Point) Dist2(o Point) float64 {
	dx := p.X - o.X
	dy := p.Y - o.Y
	return dx*dx + dy*dy
}

// Quadrant reports which quadrant p lies in with respect to origin q,
// numbered 1..4 counterclockwise as in the paper (Section 3.1). Points on
// the axes are assigned to the quadrant with the larger coordinates, so
// the mapping is total and deterministic:
//
//	x ≥ x_q, y ≥ y_q → 1    x < x_q, y ≥ y_q → 2
//	x < x_q, y < y_q → 3    x ≥ x_q, y < y_q → 4
func (p Point) Quadrant(q Point) int {
	switch {
	case p.X >= q.X && p.Y >= q.Y:
		return 1
	case p.X < q.X && p.Y >= q.Y:
		return 2
	case p.X < q.X:
		return 3
	default:
		return 4
	}
}

// IntervalDist returns the distance from value v to the closed interval
// [lo, hi], i.e. 0 when v lies inside it.
func IntervalDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
