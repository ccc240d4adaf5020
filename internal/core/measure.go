package core

import (
	"cmp"
	"math"
	"slices"

	"nwcq/internal/geom"
)

// groupDist computes the distance between q and objs (which must already
// be the n objects chosen from a window win) under measure m. For
// MeasureWindow the value is MINDIST(q, win): the engine keeps the
// minimum over every qualified window it sees containing a better group,
// which realises Equation (4)'s minimum over all qualified windows.
func groupDist(q geom.Point, objs []geom.Point, win geom.Rect, m Measure) float64 {
	switch m {
	case MeasureMin:
		best := math.Inf(1)
		for _, p := range objs {
			if d := q.Dist(p); d < best {
				best = d
			}
		}
		return best
	case MeasureAvg:
		sum := 0.0
		for _, p := range objs {
			sum += q.Dist(p)
		}
		return sum / float64(len(objs))
	case MeasureWindow:
		return win.MinDist(q)
	default: // MeasureMax
		worst := 0.0
		for _, p := range objs {
			if d := q.Dist(p); d > worst {
				worst = d
			}
		}
		return worst
	}
}

// windowOf is a group's window: of the l × w windows that hold objs, the one
// whose centre is nearest q. It is computed from objs and q alone, so a group
// has one window whichever window of the search found it. Per axis, with
// [lo, hi] the objects' extent, MinX = clamp(q.X − l/2, hi − l, lo) and
// MaxX = clamp(q.X + l/2, hi, lo + l): each edge is rounded once and clamped
// last to the objects' side, so the window holds every object and its sides
// are l and w up to rounding.
func windowOf(qy Query, objs []geom.Point) geom.Rect {
	lo, hi := objs[0], objs[0]
	for _, p := range objs[1:] {
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
	}
	var win geom.Rect
	win.MinX, win.MaxX = windowSide(qy.Q.X, qy.L, lo.X, hi.X)
	win.MinY, win.MaxY = windowSide(qy.Q.Y, qy.W, lo.Y, hi.Y)
	return win
}

// windowSide is windowOf on one axis: the interval of length ext holding
// [lo, hi] whose centre is nearest c.
func windowSide(c, ext, lo, hi float64) (float64, float64) {
	return min(max(c-ext/2, hi-ext), lo), max(min(c+ext/2, lo+ext), hi)
}

// distOrder is the deterministic object ordering used to pick the n
// closest objects of a window: by distance, then coordinates, then ID, so
// every scheme returns identical groups regardless of discovery order.
// The distance is q.Dist, which groupDist and the verify stage's counts
// read — Dist2 can order two objects the other way in the last bit — so a
// window holding n objects under a bound yields a group under it (§19).
//
// A distPoint is one indexed point together with its distance to the query
// point, computed once per query when the point is fetched.
type distPoint struct {
	d float64
	p geom.Point
}

func distLess(a, b distPoint) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.p.X != b.p.X {
		return a.p.X < b.p.X
	}
	if a.p.Y != b.p.Y {
		return a.p.Y < b.p.Y
	}
	return a.p.ID < b.p.ID
}

// compareMembers is the order of two groups at one distance: their
// members, each group's ascending under distLess, compared position by
// position. A window holding a group holds its members, so its n nearest
// are at least as early at every position: the least group at a distance
// is found by a window anchored at one of its members, which the stop rule
// and the bound's box keep (DESIGN.md §2). setKey's bytes compare the same
// way.
func compareMembers(a, b []distPoint) int {
	for i := range min(len(a), len(b)) {
		if c := distCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// withDist pairs each of objs with its distance to q.
func withDist(q geom.Point, objs []geom.Point) []distPoint {
	out := make([]distPoint, len(objs))
	for i, p := range objs {
		out[i] = distPoint{d: q.Dist(p), p: p}
	}
	return out
}

// insertionMax is the longest run the verify stage puts in order by
// insertion, with the comparison inlined, rather than by slices.SortFunc,
// which makes a call per comparison: on random distances and points the
// insertion is two to three times faster at 8 to 32 elements and still
// ahead at 64, and only past a few hundred does its quadratic term lose.
const insertionMax = 64

// distCompare is distLess as a three-way comparison.
func distCompare(a, b distPoint) int {
	if a.d != b.d { // the common case, decided by one comparison
		return cmp.Compare(a.d, b.d)
	}
	if distLess(a, b) {
		return -1
	}
	if distLess(b, a) {
		return 1
	}
	return 0
}

// selDist is groupDist, bit for bit, for members that carry their distance:
// sel in ascending distOrder, each d the q.Dist groupDist would compute.
func selDist(q geom.Point, sel []distPoint, win geom.Rect, m Measure) float64 {
	switch m {
	case MeasureMin:
		return sel[0].d
	case MeasureAvg:
		sum := 0.0
		for _, c := range sel {
			sum += c.d
		}
		return sum / float64(len(sel))
	case MeasureWindow:
		return win.MinDist(q)
	default: // MeasureMax
		return sel[len(sel)-1].d
	}
}

// pointsOf appends the points of sel to dst. What ends up in a result group
// must not alias pooled memory: such a caller passes nil.
func pointsOf(dst []geom.Point, sel []distPoint) []geom.Point {
	dst = slices.Grow(dst, len(sel))
	for _, c := range sel {
		dst = append(dst, c.p)
	}
	return dst
}

// nClosest returns the n objects of pts closest to q in ascending
// distance order (all of them if n ≥ len(pts)), breaking distance ties
// deterministically. pts is not modified.
func nClosest(q geom.Point, pts []geom.Point, n int) []geom.Point {
	return pointsOf(nil, selectClosest(withDist(q, pts), n))
}

// selectClosest returns the n least elements of s under distLess, ascending
// (all of them if n ≥ len(s)), as a prefix of s, which it reorders. The
// selection runs in O(len(s) + n log n) expected time via quickselect. It
// serves nClosest; the verify stage selects by nearestIn instead.
func selectClosest(s []distPoint, n int) []distPoint {
	if n > len(s) {
		n = len(s)
	}
	quickselect(s, n)
	top := s[:n]
	slices.SortFunc(top, distCompare)
	return top
}

// quickselect partitions s so that the k smallest elements under
// distLess occupy s[:k] (unordered). Median-of-three pivoting keeps the
// expected cost linear and behaves well on the nearly-sorted inputs the
// engine produces.
func quickselect(s []distPoint, k int) {
	lo, hi := 0, len(s)
	for hi-lo > 1 && k > lo && k < hi {
		p := medianOfThree(s, lo, hi)
		i, j := lo, hi-1
		for i <= j {
			for distLess(s[i], p) {
				i++
			}
			for distLess(p, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi).
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // k lands in the pivot band; done
		}
	}
}

func medianOfThree(s []distPoint, lo, hi int) distPoint {
	a, b, c := s[lo], s[(lo+hi)/2], s[hi-1]
	if distLess(b, a) {
		a, b = b, a
	}
	if distLess(c, b) {
		b = c
		if distLess(b, a) {
			b = a
		}
	}
	return b
}
