package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/trace"
)

// denseFixture is the regime the verify stage exists for: 6000 objects
// in one Gaussian cluster (σ = 80), so a 30 × 30 window near the centre
// holds 100–135 of them and one query qualifies thousands of windows.
func denseFixture(t *testing.T) (*Engine, []Query) {
	rng := rand.New(rand.NewSource(12))
	pts := make([]geom.Point, 6000)
	for i := range pts {
		pts[i] = geom.Point{
			X:  clamp(500+rng.NormFloat64()*80, 0, 1000),
			Y:  clamp(500+rng.NormFloat64()*80, 0, 1000),
			ID: uint64(i),
		}
	}
	var qs []Query
	for _, c := range []geom.Point{{X: 500, Y: 500}, {X: 530, Y: 470}, {X: 455, Y: 520}} {
		qs = append(qs, Query{Q: c, L: 30, W: 30, N: 8})
	}
	return buildEngine(t, pts, 16, 25), qs
}

// TestDenseVerifyCeilings holds the verify stage and the window memo to
// their contracts on dense data. The gates prune windows, never the
// traversal, so under Exec{Paper: true} — Algorithm 1's one window
// query per anchor — the counters the paper's cost model is built on must
// equal the values the eager path (every qualified window materialised)
// produced on this fixture; what changed there is that a group is
// materialised only for a window that strictly improves the bound, and a
// query allocates a handful of objects where it allocated tens of
// thousands. The serving execution, pinned too, must exceed none of those
// counters and cut the node visits at least tenfold: in this hot spot
// nearly every anchor's search region lies inside what earlier anchors
// fetched.
func TestDenseVerifyCeilings(t *testing.T) {
	eng, qs := denseFixture(t)
	// Recorded with the eager verify stage, commit 95e1636; MeasureAvg's
	// with the order-statistic gate, commit 615cc36.
	golden := map[Measure][]Stats{
		MeasureMax: {
			{NodeVisits: 30957, ObjectsProcessed: 998, ObjectsSkipped: 311, NodesPruned: 140, WindowQueries: 687, GridProbes: 791},
			{NodeVisits: 22663, ObjectsProcessed: 809, ObjectsSkipped: 214, NodesPruned: 86, WindowQueries: 595, GridProbes: 677},
			{NodeVisits: 17051, ObjectsProcessed: 730, ObjectsSkipped: 226, NodesPruned: 97, WindowQueries: 504, GridProbes: 577},
		},
		MeasureMin: {
			{NodeVisits: 27491, ObjectsProcessed: 878, ObjectsSkipped: 254, NodesPruned: 124, WindowQueries: 624, GridProbes: 716},
			{NodeVisits: 18354, ObjectsProcessed: 694, ObjectsSkipped: 194, NodesPruned: 86, WindowQueries: 500, GridProbes: 571},
			{NodeVisits: 15294, ObjectsProcessed: 691, ObjectsSkipped: 230, NodesPruned: 87, WindowQueries: 461, GridProbes: 530},
		},
		MeasureAvg: {
			{NodeVisits: 28865, ObjectsProcessed: 913, ObjectsSkipped: 260, NodesPruned: 121, WindowQueries: 653, GridProbes: 748},
			{NodeVisits: 21371, ObjectsProcessed: 761, ObjectsSkipped: 192, NodesPruned: 80, WindowQueries: 569, GridProbes: 646},
			{NodeVisits: 16562, ObjectsProcessed: 720, ObjectsSkipped: 232, NodesPruned: 98, WindowQueries: 488, GridProbes: 560},
		},
	}
	// The serving execution of a search that is not for a single best group
	// (single = false, kNWC's), recorded with the stop at the reach: it ends
	// with an eighth of the paper's objects unprocessed, and under MeasureMax
	// drops nearly every anchor on a count over the memo — five window
	// queries for 687 — where the paper's fetches the region first. In query
	// 1 one anchor more is read: the part of its region in the bound's box
	// holds eight objects within the bound, the held group's far member and
	// seven others, which fit a window: a set that could tie with it. Under
	// MeasureMin the same count before fetching drops an anchor whose part
	// of the box of the held group's far member holds no rival and nothing
	// nearer than the bound. Under MeasureAvg a group needs just one object
	// within the bound, and the count drops 25–30 anchors of 490–650.
	served := map[Measure][]Stats{
		MeasureMax: {
			{NodeVisits: 287, ObjectsProcessed: 864, ObjectsSkipped: 177, NodesPruned: 27, WindowQueries: 5, GridProbes: 109},
			{NodeVisits: 246, ObjectsProcessed: 734, ObjectsSkipped: 139, NodesPruned: 30, WindowQueries: 5, GridProbes: 87},
			{NodeVisits: 187, ObjectsProcessed: 639, ObjectsSkipped: 135, NodesPruned: 21, WindowQueries: 3, GridProbes: 76},
		},
		MeasureMin: {
			{NodeVisits: 434, ObjectsProcessed: 761, ObjectsSkipped: 137, NodesPruned: 28, WindowQueries: 532, GridProbes: 624},
			{NodeVisits: 330, ObjectsProcessed: 623, ObjectsSkipped: 123, NodesPruned: 24, WindowQueries: 479, GridProbes: 550},
			{NodeVisits: 322, ObjectsProcessed: 598, ObjectsSkipped: 137, NodesPruned: 19, WindowQueries: 417, GridProbes: 486},
		},
		MeasureAvg: {
			{NodeVisits: 883, ObjectsProcessed: 800, ObjectsSkipped: 147, NodesPruned: 27, WindowQueries: 628, GridProbes: 723},
			{NodeVisits: 461, ObjectsProcessed: 688, ObjectsSkipped: 119, NodesPruned: 23, WindowQueries: 539, GridProbes: 616},
			{NodeVisits: 527, ObjectsProcessed: 623, ObjectsSkipped: 135, NodesPruned: 22, WindowQueries: 459, GridProbes: 531},
		},
	}
	for measure, want := range golden {
		for i, qy := range qs {
			for _, perAnchor := range []bool{true, false} {
				best := math.Inf(1)
				var members []distPoint
				improvements := int64(0)
				rec := trace.New()
				st, err := eng.search(context.Background(), qy, SchemeNWCStar, collector{
					bound: func() float64 { return best },
					take: func(dist float64, sel []distPoint) bool {
						if dist >= best {
							rec.Count(trace.CtrWindowsGated, 1)
							return false
						}
						best, members = dist, append(members[:0], sel...)
						improvements++
						return true
					},
					held: func() ([]distPoint, float64) { return members, best },
				}, measure, Exec{Rec: rec, Paper: perAnchor}, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				c := rec.Counters()
				if emitted := c[trace.CtrGroupsEmitted]; emitted != improvements || emitted == 0 {
					t.Errorf("%v query %d: %d groups emitted, %d strict improvements", measure, i, emitted, improvements)
				}
				if gated, repeated := c[trace.CtrWindowsGated], c[trace.CtrWindowsRepeated]; int64(st.QualifiedWindows) != gated+repeated+improvements || perAnchor && repeated != 0 {
					t.Errorf("%v query %d: %d qualified windows != %d gated + %d repeated + %d emitted", measure, i, st.QualifiedWindows, gated, repeated, improvements)
				}
				if c[trace.CtrAnchorsGated] == 0 {
					t.Errorf("%v query %d: no anchor was gated before its sort", measure, i)
				}
				// The window counts fall — a gated anchor enumerates none —
				// and are not part of the traversal's signature.
				st.CandidateWindows, st.QualifiedWindows = 0, 0
				wantSt := want[i]
				if perAnchor {
					if n := c[trace.CtrMemoBypassed]; n != int64(st.WindowQueries) || c[trace.CtrMemoServed]+c[trace.CtrMemoStrips] != 0 {
						t.Errorf("%v query %d: per-anchor execution touched the memo: %d of %d anchors bypassed it", measure, i, n, st.WindowQueries)
					}
				} else {
					wantSt = served[measure][i]
					if wantSt.NodeVisits*10 > want[i].NodeVisits {
						t.Errorf("%v query %d: shared pin of %d node visits is over a tenth of the per-anchor %d", measure, i, wantSt.NodeVisits, want[i].NodeVisits)
					}
					if !noMoreWork(wantSt, want[i]) || wantSt.ObjectsSkipped > want[i].ObjectsSkipped || c[trace.CtrStoppedAtBound] != 1 {
						t.Errorf("%v query %d: serving pin %+v exceeds the per-anchor %+v, or the search did not end at the bound", measure, i, wantSt, want[i])
					}
				}
				if st != wantSt {
					t.Errorf("%v query %d per-anchor=%v: traversal stats %+v, want %+v", measure, i, perAnchor, st, wantSt)
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, _, err := eng.NWC(context.Background(), qy, SchemeNWCStar, measure, Exec{Paper: perAnchor}); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 64 {
					t.Errorf("%v query %d per-anchor=%v: %.0f allocations per query, ceiling 64", measure, i, perAnchor, allocs)
				}
			}
		}
	}
}
