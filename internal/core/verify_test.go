package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
)

// Differential tests for the verify stage (evaluateWindows) on data built
// to produce ties: many equal distances, equal y coordinates, duplicate
// coordinates and objects at distance exactly equal to the current
// bound — where a gate that is off by one comparison, one ulp or one
// object changes the answer.

// tieDataset returns points on a pitch-10 integer lattice inside
// [200,200+10·side]², each vertex holding 0–3 objects (distinct IDs), in
// shuffled order. Queries on lattice vertices then see every distance
// several times over.
func tieDataset(rng *rand.Rand, side int) []geom.Point {
	var pts []geom.Point
	for i := 0; i <= side; i++ {
		for j := 0; j <= side; j++ {
			for d := rng.Intn(4); d > 0; d-- {
				pts = append(pts, geom.Point{X: 200 + float64(i*10), Y: 200 + float64(j*10)})
			}
		}
	}
	rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
	for i := range pts {
		pts[i].ID = uint64(i)
	}
	return pts
}

// tieQuery draws a query on the lattice (or half a pitch off it) with
// window extents that are lattice multiples, so window edges pass
// through objects.
func tieQuery(rng *rand.Rand, side int) Query {
	return Query{
		Q: geom.Point{X: 200 + float64(rng.Intn(2*side+1))*5, Y: 200 + float64(rng.Intn(2*side+1))*5},
		L: float64(1+rng.Intn(3)) * 10,
		W: float64(1+rng.Intn(3)) * 10,
		N: 1 + rng.Intn(6),
	}
}

// sixteenSchemes lists every combination of the four optimisations.
func sixteenSchemes() []Scheme {
	var out []Scheme
	for b := 0; b < 16; b++ {
		out = append(out, Scheme{SRR: b&1 != 0, DIP: b&2 != 0, DEP: b&4 != 0, IWP: b&8 != 0})
	}
	return out
}

// inUniverse reports whether g is exactly — objects, distance and window
// — the group of some qualified window of the Lemma-1 candidate universe
// (the enumeration CandidateGroups deduplicates).
func inUniverse(pts []geom.Point, qy Query, measure Measure, g Group) bool {
	for _, p := range pts {
		top := geom.AnchorsTopEdge(qy.Q, p)
		for _, o := range pts {
			if top && o.Y < p.Y || !top && o.Y > p.Y {
				continue
			}
			win := geom.CandidateWindow(qy.Q, p, o, qy.L, qy.W)
			if win != g.Window || !win.ContainsPoint(o) || !win.ContainsPoint(p) {
				continue
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
			if slices.Equal(objs, g.Objects) && groupDist(qy.Q, objs, win, measure) == g.Dist {
				return true
			}
		}
	}
	return false
}

// TestTieHeavyMatchesOracles runs NWC and kNWC under every measure and
// scheme combination on tie-heavy data. Distances must equal the
// oracles' bit for bit (engine and oracle share groupDist, so no
// tolerance is needed or allowed), and every returned group must be an
// exact member of the candidate universe.
func TestTieHeavyMatchesOracles(t *testing.T) {
	schemes := sixteenSchemes()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const side = 5
		pts := tieDataset(rng, side)
		eng := buildEngine(t, pts, 4, 10)
		for trial := 0; trial < 5; trial++ {
			qy := tieQuery(rng, side)
			for _, measure := range allMeasures {
				want := BruteForceNWC(pts, qy, measure)
				for _, scheme := range schemes {
					got, _, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					if got.Found != want.Found || got.Found && got.Dist != want.Dist {
						t.Fatalf("seed %d %v %v %+v: NWC (%v, %v), oracle (%v, %v)",
							seed, scheme, measure, qy, got.Found, got.Dist, want.Found, want.Dist)
					}
					if got.Found && !inUniverse(pts, qy, measure, got.Group) {
						t.Fatalf("seed %d %v %v %+v: NWC group %+v is no candidate window's group",
							seed, scheme, measure, qy, got.Group)
					}
				}
				for m := 0; m <= 1; m++ {
					kq := KNWCQuery{Query: qy, K: 3, M: m}
					ref := BruteForceKNWC(pts, kq, measure)
					for _, scheme := range schemes {
						groups, _, err := eng.KNWC(context.Background(), kq, scheme, measure, Exec{})
						if err != nil {
							t.Fatal(err)
						}
						label := scheme.String() + "/" + measure.String()
						checkDefinition3(t, pts, kq, measure, groups, label)
						if len(groups) != len(ref) {
							t.Fatalf("seed %d %s %+v: %d groups, oracle %d", seed, label, kq, len(groups), len(ref))
						}
						for i, g := range groups {
							if g.Dist != ref[i].Dist {
								t.Fatalf("seed %d %s %+v: group %d dist %v, oracle %v", seed, label, kq, i, g.Dist, ref[i].Dist)
							}
							if !inUniverse(pts, qy, measure, g) {
								t.Fatalf("seed %d %s %+v: group %d %+v is no candidate window's group", seed, label, kq, i, g)
							}
						}
					}
				}
			}
		}
	}
}

// TestSharedBoundAtTheOptimum pins strictness against an externally
// supplied bound. A SharedBound already equal to the local optimum means
// no local group improves on it: the cell stays untouched and the
// result is elided — always under MeasureMax/MeasureMin, whose counting
// gate is exact; the other measures' gates carry rounding slack and may
// let the equal group through. A bound one ulp above the optimum must
// still yield it exactly.
func TestSharedBoundAtTheOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const side = 5
	pts := tieDataset(rng, side)
	eng := buildEngine(t, pts, 4, 10)
	checked := 0
	for trial := 0; trial < 12; trial++ {
		qy := tieQuery(rng, side)
		for _, measure := range allMeasures {
			want := BruteForceNWC(pts, qy, measure)
			if !want.Found || want.Dist == 0 {
				continue
			}
			checked++
			for _, scheme := range []Scheme{SchemeNWC, SchemeNWCStar} {
				at := rstar.NewSharedBound()
				at.Tighten(want.Dist)
				got, _, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{Bound: at})
				if err != nil {
					t.Fatal(err)
				}
				strict := measure == MeasureMax || measure == MeasureMin
				if got.Found && (strict || got.Dist != want.Dist) || at.Load() != want.Dist {
					t.Fatalf("%v %v %+v: bound at the optimum %v: found=%v dist=%v, cell %v",
						scheme, measure, qy, want.Dist, got.Found, got.Dist, at.Load())
				}
				above := rstar.NewSharedBound()
				above.Tighten(math.Nextafter(want.Dist, math.Inf(1)))
				got, _, err = eng.NWC(context.Background(), qy, scheme, measure, Exec{Bound: above})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Found || got.Dist != want.Dist || above.Load() != want.Dist {
					t.Fatalf("%v %v %+v: bound one ulp above the optimum %v: found=%v dist=%v, cell %v",
						scheme, measure, qy, want.Dist, got.Found, got.Dist, above.Load())
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no query had a non-zero optimum; the test is vacuous")
	}
}

// eagerWindows is the reference for evaluateWindows' gates: the same
// windows of anchor p in the same order, but every qualified one is
// materialised and emitted — no distance test of any kind. emit is the
// authority on what improves, so a gate that only ever skips
// non-improving windows leaves the final state identical to this.
func eagerWindows(qy Query, p geom.Point, cands []geom.Point, measure Measure, emit func(Group)) {
	q, l, w, n := qy.Q, qy.L, qy.W, qy.N
	xlo, xhi := p.X, p.X+l
	if geom.OnRightEdge(q, p) {
		xlo, xhi = p.X-l, p.X
	}
	var s []geom.Point
	for _, c := range cands {
		if c.X >= xlo && c.X <= xhi {
			s = append(s, c)
		}
	}
	top := geom.AnchorsTopEdge(q, p)
	sort.SliceStable(s, func(a, b int) bool {
		if top {
			return s[a].Y < s[b].Y
		}
		return s[a].Y > s[b].Y
	})
	for i, o := range s {
		if top && o.Y < p.Y || !top && o.Y > p.Y {
			continue
		}
		if i+1 < len(s) && s[i+1].Y == o.Y {
			continue
		}
		var contents []geom.Point
		for _, c := range s[:i+1] {
			if top && c.Y >= o.Y-w || !top && c.Y <= o.Y+w {
				contents = append(contents, c)
			}
		}
		if len(contents) < n {
			continue
		}
		win := geom.CandidateWindow(q, p, o, l, w)
		objs := nClosest(q, contents, n)
		emit(Group{Objects: objs, Dist: groupDist(q, objs, win, measure), Window: win})
	}
}

// forEachAnchor feeds eval every object as an anchor, nearest first,
// with the contents of its search region as candidates — the sequence
// the traversal produces with every optimisation off.
func forEachAnchor(pts []geom.Point, qy Query, eval func(p geom.Point, cands []geom.Point)) {
	order := nClosest(qy.Q, pts, len(pts))
	for _, p := range order {
		sr := geom.SearchRegion(qy.Q, p, qy.L, qy.W)
		var cands []geom.Point
		for _, c := range pts {
			if sr.ContainsPoint(c) {
				cands = append(cands, c)
			}
		}
		eval(p, cands)
	}
}

// gatedAnchor runs the engine's evaluateWindows on one anchor.
func gatedAnchor(qy Query, p geom.Point, cands []geom.Point, measure Measure, bound func() float64, take sink) {
	sc := getScratch()
	defer putScratch(sc)
	cand := make([]distPoint, len(cands))
	for i, c := range cands {
		cand[i] = distPoint{p: c, d: qy.Q.Dist(c)}
	}
	var st Stats
	evaluateWindows(qy, p, cand, math.Inf(-1), math.Inf(1), false, sc, measure, bound, take, false, &st, nil)
}

// asSink is a sink that materialises whatever it is handed and passes it
// to emit, which decides: the eager verify stage's emit, behind the door
// the serving one has. It reports nothing kept, which only a trace reads.
func asSink(emit func(Group)) sink {
	return func(dist float64, sel []distPoint, win geom.Rect) bool {
		emit(Group{Objects: pointsOf(nil, sel), Dist: dist, Window: win})
		return false
	}
}

// TestGatedVerifyEqualsEager drives evaluateWindows and the gate-free
// reference over the same anchor sequence on tie-heavy data and demands
// identical final state — Objects, Dist and Window — for NWC and for
// kNWC (k=3, m∈{0,1}) under all four measures. The kNWC sweep must
// include anchors during which the k-th bound rises (accepting a pooled
// group can evict a farther one's blocker), the case that forces the
// under-the-bound count to be retaken rather than only decremented.
func TestGatedVerifyEqualsEager(t *testing.T) {
	rises := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const side = 4
		pts := tieDataset(rng, side)
		for trial := 0; trial < 6; trial++ {
			qy := tieQuery(rng, side)
			for _, measure := range allMeasures {
				var gated, eager Group
				gated.Dist, eager.Dist = math.Inf(1), math.Inf(1)
				keepBest := func(best *Group) func(Group) {
					return func(g Group) {
						if g.Dist < best.Dist {
							*best = g
						}
					}
				}
				forEachAnchor(pts, qy, func(p geom.Point, cands []geom.Point) {
					gatedAnchor(qy, p, cands, measure, func() float64 { return gated.Dist }, asSink(keepBest(&gated)))
					eagerWindows(qy, p, cands, measure, keepBest(&eager))
				})
				if !reflect.DeepEqual(gated, eager) {
					t.Fatalf("seed %d %v %+v: NWC gated %+v, eager %+v", seed, measure, qy, gated, eager)
				}

				for m := 0; m <= 1; m++ {
					gs := newKNWCState(3, m)
					es := newKNWCState(3, m)
					forEachAnchor(pts, qy, func(p geom.Point, cands []geom.Point) {
						last := gs.bound()
						gatedAnchor(qy, p, cands, measure, func() float64 {
							b := gs.bound()
							if b > last {
								rises++
							}
							last = b
							return b
						}, gs.offer)
						eagerWindows(qy, p, cands, measure, func(g Group) { es.offerGroup(g) })
					})
					if !reflect.DeepEqual(gs.result(), es.result()) {
						t.Fatalf("seed %d %v m=%d %+v: kNWC gated %+v, eager %+v", seed, measure, m, qy, gs.result(), es.result())
					}
				}
			}
		}
	}
	if rises == 0 {
		t.Fatal("the k-th bound never rose mid-anchor; the recount case is untested")
	}
}

// TestAnchorOrderSelection holds the verify stage's selection — a window's
// n nearest as the first n of its positions in one distance order per
// anchor — to selectClosest over the window's contents, element for
// element, for every window of every anchor. The slabs are random, and a
// lattice where distances tie, rows share a y and sites hold up to three
// objects, and some are longer than insertionMax, so that both of
// distOrder's sorts run; every object is an anchor, on the top edge or the
// bottom one;
// all four measures; the candidates arrive as the memo hands them over (a
// y-band in (Y, X, ID) order, cut to the region's x bounds) and as a range
// query does (the region, in no order). At an infinite bound, with the
// repeat skip off, every qualified window reaches the sink.
func TestAnchorOrderSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var random, lattice []geom.Point
	for i := 0; i < 300; i++ {
		random = append(random, geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40, ID: uint64(i)})
	}
	for x := 0; x <= 40; x += 2 {
		for y := 0; y <= 40; y += 2 {
			for c := rng.Intn(4); c > 0; c-- {
				lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y), ID: uint64(len(lattice))})
			}
		}
	}
	queries := []Query{
		{Q: geom.Point{X: 20, Y: 20}, L: 4, W: 4, N: 1},
		{Q: geom.Point{X: 21, Y: 19}, L: 6, W: 4, N: 3},
		{Q: geom.Point{X: 20, Y: 21}, L: 4, W: 8, N: 6},
		{Q: geom.Point{X: 19, Y: 20}, L: 12, W: 12, N: 4}, // slabs past insertionMax
	}
	windows := map[bool]int{} // checked, by anchor edge (top or not)
	sorted := map[bool]int{}  // checked, by whether distOrder sorts by insertion
	for name, pts := range map[string][]geom.Point{"random": random, "lattice": lattice} {
		for _, qy := range queries {
			q := qy.Q
			for _, measure := range allMeasures {
				for _, p := range pts {
					sr := geom.SearchRegion(q, p, qy.L, qy.W)
					var region, band []distPoint
					for _, c := range pts {
						o := distPoint{d: q.Dist(c), p: c}
						if c.Y >= sr.MinY && c.Y <= sr.MaxY {
							band = append(band, o)
						}
						if sr.ContainsPoint(c) {
							region = append(region, o)
						}
					}
					slices.SortFunc(band, yOrder)
					rng.Shuffle(len(region), func(i, j int) { region[i], region[j] = region[j], region[i] })
					for _, ordered := range []bool{true, false} {
						cand := region
						if ordered {
							cand = band
						}
						calls := 0
						take := func(dist float64, sel []distPoint, win geom.Rect) bool {
							calls++
							var in []distPoint
							for _, o := range region {
								if win.ContainsPoint(o.p) {
									in = append(in, o)
								}
							}
							want := selectClosest(in, qy.N)
							if !slices.Equal(sel, want) || dist != selDist(q, want, win, measure) {
								t.Fatalf("%s %+v %v anchor %v (ordered %v), window %v: selected %v at %v, selectClosest %v",
									name, qy, measure, p, ordered, win, sel, dist, want)
							}
							return false
						}
						sc := getScratch()
						var st Stats
						evaluateWindows(qy, p, cand, sr.MinX, sr.MaxX, ordered, sc, measure,
							func() float64 { return math.Inf(1) }, take, true, &st, nil)
						putScratch(sc)
						if calls != st.QualifiedWindows {
							t.Fatalf("%s %+v %v anchor %v (ordered %v): %d windows selected of %d qualified",
								name, qy, measure, p, ordered, calls, st.QualifiedWindows)
						}
						windows[geom.AnchorsTopEdge(q, p)] += calls
						sorted[len(region) <= insertionMax] += calls
					}
				}
			}
		}
	}
	if windows[true] == 0 || windows[false] == 0 || sorted[true] == 0 || sorted[false] == 0 {
		t.Fatalf("windows checked by anchor edge (top: true) %v, by insertion-sorted slab (true) %v: both sides of each must be exercised", windows, sorted)
	}
}

// TestGatedAnchorStaysUnsorted pins where a bypassed anchor's own range
// query is put in order: after the per-anchor count gate, never before it.
// A run the gate drops is left as the range query returned it; sorting
// first made Algorithm 1's execution (Exec.Paper), whose anchors are all
// bypassed and nearly all dropped, 2.4 times slower. The same run with an
// anchor that passes ends in y order, so the test can see a sort.
func TestGatedAnchorStaysUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	qy := Query{Q: geom.Point{X: 0, Y: 0}, L: 50, W: 50, N: 3}
	p := geom.Point{X: 10, Y: 10}
	sr := geom.SearchRegion(qy.Q, p, qy.L, qy.W)
	for _, b := range []float64{0, math.Inf(1)} { // no candidate is under 0
		sc := getScratch()
		sc.slab = sc.slab[:0]
		for i := 0; i < 40; i++ {
			c := geom.Point{X: sr.MinX + rng.Float64()*qy.L, Y: sr.MinY + rng.Float64()*2*qy.W, ID: uint64(i)}
			sc.slab = append(sc.slab, distPoint{d: qy.Q.Dist(c), p: c})
		}
		cand := sc.slab // what anchorCandidates returns for a bypassed anchor
		before := slices.Clone(cand)
		var st Stats
		evaluateWindows(qy, p, cand, sr.MinX, sr.MaxX, false, sc, MeasureMax,
			func() float64 { return b }, func(float64, []distPoint, geom.Rect) bool { return false }, true, &st, nil)
		sorted := slices.IsSortedFunc(cand, yOrder)
		if gated := !math.IsInf(b, 1); gated && !slices.Equal(cand, before) || !gated && !sorted {
			t.Errorf("bound %v: run sorted %v, unchanged %v; a gated anchor's run must stay as fetched, a passing one's end sorted",
				b, sorted, slices.Equal(cand, before))
		}
		putScratch(sc)
	}
}
