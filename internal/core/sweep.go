package core

import (
	"cmp"
	"slices"

	"nwcq/internal/geom"
)

// GroupsWithin returns CandidateGroups' list cut after its last group with
// Dist ≤ limit — one entry per distinct object set at its smallest distance,
// in CompareGroups' order, each with its window — for a valid qy, whatever
// the order of pts. It is the verify stage run over a slice (DESIGN.md §11):
// each point as anchor with its search region shrunk under the limit, and the
// y-band of the points in the memo's order for candidates. The list is a
// function of the set of points: the order the anchors run in decides
// nothing, since a set's entry is its least distance and its window is its
// objects'.
func GroupsWithin(pts []geom.Point, qy Query, measure Measure, limit float64) []Group {
	sc := getScratch()
	defer putScratch(sc)
	all := sc.memo.pts
	for _, p := range pts {
		all = append(all, distPoint{d: qy.Q.Dist(p), p: p})
	}
	slices.SortFunc(all, yOrder)
	sc.memo.pts = all
	bound := func() float64 { return limit }
	var key []byte
	var entries []poolEntry
	at := map[string]int{} // set key → position in entries
	take := func(dist float64, sel []distPoint) bool {
		if dist > limit {
			return false
		}
		key = setKey(key[:0], sel)
		i, known := at[string(key)]
		if known && dist >= entries[i].g.Dist {
			return false
		}
		if !known {
			i = len(entries)
			entries = append(entries, poolEntry{key: string(key), g: Group{Objects: pointsOf(nil, sel)}})
			at[entries[i].key] = i
		}
		entries[i].g.Dist = dist
		return true
	}
	var st Stats
	c := collector{bound: bound, take: take}
	for _, a := range all {
		if sr := geom.ShrinkSearchRegion(qy.Q, a.p, qy.L, qy.W, gate(limit)); !sr.IsEmpty() {
			evaluateWindows(qy, a.p, sc.memo.band(sr), sr.MinX, sr.MaxX, true, sc, measure, c, false, &st, nil)
		}
	}
	slices.SortFunc(entries, func(a, b poolEntry) int { // CompareGroups, the keys in hand
		return cmp.Or(cmp.Compare(a.g.Dist, b.g.Dist), cmp.Compare(a.key, b.key))
	})
	out := make([]Group, len(entries))
	for i, e := range entries {
		out[i] = e.g
		out[i].Window = windowOf(qy, e.g.Objects)
	}
	return out
}

// CompareGroups is the order of a candidate list, and of the answers to one
// query at q: distance, then the members in ascending distance order, one by
// one under distLess — the order of setKey's bytes.
func CompareGroups(q geom.Point, a, b Group) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return compareMembers(withDist(q, a.Objects), withDist(q, b.Objects))
}
