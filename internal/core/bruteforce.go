package core

import (
	"encoding/binary"
	"math"
	"sort"

	"nwcq/internal/geom"
)

// This file holds exhaustive reference implementations used by the test
// suite (and available to callers who want an oracle). They share no
// code with the engine: candidate windows are enumerated from first
// principles — by Lemma 1 an optimal window can be slid until one object
// lies on a vertical edge and one on a horizontal edge, so anchoring
// window edges at every object's x ± l and y ± w enumerates a superset
// of everything the NWC algorithm must consider. Complexity is O(N³);
// use small N. Reference only: tests and bench/check.go compare against
// it, no serving path calls it (the router's sweep is GroupsWithin; CI
// fails on a non-test caller outside this package and bench/).

// BruteForceNWC solves NWC(q, l, w, n) over pts exhaustively: of the n
// nearest objects of every qualified window, the group with the least
// distance, and among those the least set key (groupKey), with its window.
func BruteForceNWC(pts []geom.Point, qy Query, measure Measure) Result {
	best := Group{Dist: math.Inf(1)}
	var bestKey string
	ForEachCandidateWindow(pts, qy, func(win geom.Rect, contents []geom.Point) {
		objs := nClosest(qy.Q, contents, qy.N)
		d := groupDist(qy.Q, objs, win, measure)
		if k := groupKey(qy.Q, objs); d < best.Dist || d == best.Dist && k < bestKey {
			best, bestKey = Group{Objects: objs, Dist: d}, k
		}
	})
	if best.Objects == nil {
		return Result{}
	}
	best.Window = windowOf(qy, best.Objects)
	return Result{Group: best, Found: true}
}

// ForEachCandidateWindow enumerates every candidate l × w window with an
// edge anchored at some object coordinate and calls fn with the window
// and its full contents whenever the window is qualified (holds at least
// n objects).
func ForEachCandidateWindow(pts []geom.Point, qy Query, fn func(win geom.Rect, contents []geom.Point)) {
	l, w, n := qy.L, qy.W, qy.N
	// Each axis interval is constructed directly in both anchored forms
	// ([v−l, v] and [v, v+l]) rather than recovered by subtraction: a
	// round-trip like (v+w)−w can drift by an ulp and silently exclude
	// the anchor object from its own window.
	type interval struct{ lo, hi float64 }
	intervals := func(vals []float64, ext float64) []interval {
		out := make([]interval, 0, 2*len(vals))
		for _, v := range vals {
			out = append(out, interval{v - ext, v}, interval{v, v + ext})
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].lo != out[b].lo {
				return out[a].lo < out[b].lo
			}
			return out[a].hi < out[b].hi
		})
		dedup := out[:0]
		for i, iv := range out {
			if i == 0 || iv != out[i-1] {
				dedup = append(dedup, iv)
			}
		}
		return dedup
	}
	xvals := make([]float64, len(pts))
	yvals := make([]float64, len(pts))
	for i, p := range pts {
		xvals[i], yvals[i] = p.X, p.Y
	}
	xiv := intervals(xvals, l)
	yiv := intervals(yvals, w)
	var contents []geom.Point
	for _, xi := range xiv {
		for _, yi := range yiv {
			win := geom.Rect{MinX: xi.lo, MinY: yi.lo, MaxX: xi.hi, MaxY: yi.hi}
			contents = contents[:0]
			for _, p := range pts {
				if win.ContainsPoint(p) {
					contents = append(contents, p)
				}
			}
			if len(contents) >= n {
				fn(win, contents)
			}
		}
	}
}

// CandidateGroups returns, for every qualified window of the Lemma-1
// candidate universe — windows generated by an anchor object p on the
// quadrant-appropriate vertical edge and a partner object inside the
// window on the quadrant-appropriate horizontal edge — the group of its
// n closest objects, deduplicated by object set (keeping the smallest
// distance per set), each with its window, and sorted by ascending
// distance, then set key.
//
// This is the candidate universe the NWC/kNWC algorithms quantify over.
// It is a strict subset of ForEachCandidateWindow's enumeration (which
// anchors windows on both sides of each object): for the single best
// group the restriction is lossless — TestNWCMatchesBruteForceAllSchemes
// proves it against the superset — but the universes' n-closest group
// sets differ, which matters when checking Definition 3's fourth
// criterion for kNWC.
func CandidateGroups(pts []geom.Point, qy Query, measure Measure) []Group {
	bestBySet := map[string]Group{}
	for _, p := range pts {
		top := geom.AnchorsTopEdge(qy.Q, p)
		for _, o := range pts {
			if top && o.Y < p.Y || !top && o.Y > p.Y {
				continue
			}
			win := geom.CandidateWindow(qy.Q, p, o, qy.L, qy.W)
			if !win.ContainsPoint(o) || !win.ContainsPoint(p) {
				continue // both generators must lie inside the window
			}
			var contents []geom.Point
			for _, c := range pts {
				if win.ContainsPoint(c) {
					contents = append(contents, c)
				}
			}
			if len(contents) < qy.N {
				continue
			}
			objs := nClosest(qy.Q, contents, qy.N)
			d := groupDist(qy.Q, objs, win, measure)
			k := groupKey(qy.Q, objs)
			if prev, ok := bestBySet[k]; !ok || d < prev.Dist {
				bestBySet[k] = Group{Objects: objs, Dist: d, Window: windowOf(qy, objs)}
			}
		}
	}
	out := make([]Group, 0, len(bestBySet))
	for _, g := range bestBySet {
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return groupKey(qy.Q, out[a].Objects) < groupKey(qy.Q, out[b].Objects)
	})
	return out
}

// groupKey canonicalises an object set, given in ascending distance from q
// (nClosest's order), for deduplication and for the order of sets at one
// distance: per object its distance, x and y, each a word whose unsigned
// order is the number's, and its ID — so the keys of two sets compare as
// their objects do, one by one, by distance, then coordinates, then ID.
func groupKey(q geom.Point, objs []geom.Point) string {
	word := func(v float64) uint64 {
		if v == 0 {
			return 1 << 63 // −0 is 0
		}
		if b := math.Float64bits(v); v > 0 {
			return b | 1<<63
		}
		return ^math.Float64bits(v)
	}
	buf := make([]byte, 0, len(objs)*32)
	for _, p := range objs {
		for _, v := range []uint64{word(q.Dist(p)), word(p.X), word(p.Y), p.ID} {
			buf = binary.BigEndian.AppendUint64(buf, v)
		}
	}
	return string(buf)
}

// BruteForceKNWC answers a kNWC query by greedy selection over the
// sorted candidate groups: accept each group whose overlap with every
// previously accepted group is within m (and which is not an exact
// duplicate), until k groups are held. The greedy result satisfies all
// four criteria of Definition 3.
func BruteForceKNWC(pts []geom.Point, qy KNWCQuery, measure Measure) []Group {
	var out []Group
	for _, g := range CandidateGroups(pts, qy.Query, measure) {
		ok := true
		for _, h := range out {
			ov := h.OverlapCount(g)
			if ov > qy.M || ov == len(g.Objects) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, g)
			if len(out) == qy.K {
				break
			}
		}
	}
	return out
}
