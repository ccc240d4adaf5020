package core

import (
	"bytes"
	"cmp"
	"slices"

	"nwcq/internal/geom"
)

// GroupsWithin returns CandidateGroups' list cut after its last group with
// Dist ≤ limit — one entry per distinct object set at its smallest distance,
// in CompareGroups' order — for a valid qy, whatever the order of pts. It is
// the verify stage run over a slice (DESIGN.md §11): each point, in (X, Y, ID)
// order, as anchor with its search region shrunk under the limit, and the
// y-band of the points in the memo's order for candidates.
//
// A set found again at its smallest distance keeps the window it was first
// found in: that of the first anchor in (X, Y, ID) order to reach it, and
// of that anchor the first window in its sweep. The anchor order is fixed
// here, not inherited from the memo, whose y order would pick another.
func GroupsWithin(pts []geom.Point, qy Query, measure Measure, limit float64) []Group {
	sc := getScratch()
	defer putScratch(sc)
	all := sc.memo.pts
	for _, p := range pts {
		all = append(all, distPoint{d: qy.Q.Dist(p), p: p})
	}
	slices.SortFunc(all, yOrder)
	sc.memo.pts = all
	anchors := slices.Clone(pts)
	slices.SortFunc(anchors, comparePoints)
	// The gates are strict and squared, made to drop a group at the bound;
	// one at the limit must pass: the bound is the limit and a little (the
	// next float up still loses it), its square above zero. take cuts, exactly.
	b := max(limit*(1+1e-9), 1e-150)
	bound := func() float64 { return b }
	var key []byte
	var objs []geom.Point
	var entries []poolEntry
	at := map[string]int{} // set key → position in entries
	take := func(dist float64, sel []distPoint, win geom.Rect) bool {
		if dist > limit {
			return false
		}
		objs = pointsOf(objs[:0], sel)
		key = setKey(key[:0], objs)
		i, known := at[string(key)]
		if known && dist >= entries[i].g.Dist {
			return false
		}
		if !known {
			i = len(entries)
			entries = append(entries, poolEntry{key: string(key), g: Group{Objects: pointsOf(nil, sel)}})
			at[entries[i].key] = i
		}
		entries[i].g.Dist, entries[i].g.Window = dist, win // a set's members come in one order
		return true
	}
	var st Stats
	for _, a := range anchors {
		if sr := geom.ShrinkSearchRegion(qy.Q, a, qy.L, qy.W, b); !sr.IsEmpty() {
			evaluateWindows(qy, a, sc.memo.band(sr), sr.MinX, sr.MaxX, true, sc, measure, bound, take, false, &st, nil)
		}
	}
	slices.SortFunc(entries, func(a, b poolEntry) int { // CompareGroups, the keys in hand
		return cmp.Or(cmp.Compare(a.g.Dist, b.g.Dist), cmp.Compare(a.key, b.key))
	})
	out := make([]Group, len(entries))
	for i, e := range entries {
		out[i] = e.g
	}
	return out
}

// CompareGroups is the order of a candidate list: distance, then set key.
func CompareGroups(a, b Group) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return bytes.Compare(setKey(nil, slices.Clone(a.Objects)), setKey(nil, slices.Clone(b.Objects)))
}
