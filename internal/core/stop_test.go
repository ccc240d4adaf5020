package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// A stop script is six header bytes — the query point in half steps of a
// 16 × 16 lattice, l and w from 1 to 8, n from 1 to 6, and where the
// lattice's origin lies on both axes (0, 2²⁰ or 2⁴⁰: q ± bound then rounds
// at a magnitude the bound does not have) — and then one object per two
// bytes, at lattice site (x%17, y%17) under the ID of its position. Small
// integers make everything the stop rule has to get right common instead
// of rare: objects at exactly the bound's distance or on its box's edge,
// sites holding several objects, anchors sharing an x or a y with q,
// anchors equidistant from q, and group distances (math.Hypot) whose
// square is an ulp off the anchors' integer Dist2.
func decodeStop(data []byte) (qy Query, pts []geom.Point, origin float64) {
	if len(data) < 6 {
		return Query{}, nil, 0
	}
	origin = [3]float64{0, 1 << 20, 1 << 40}[data[5]%3]
	qy = Query{
		Q: geom.Point{X: origin + float64(data[0]%33)/2, Y: origin + float64(data[1]%33)/2},
		L: float64(1 + data[2]%8), W: float64(1 + data[3]%8), N: 1 + int(data[4]%6),
	}
	for data = data[6:]; len(data) >= 2 && len(pts) < 40; data = data[2:] {
		pts = append(pts, geom.Point{X: origin + float64(data[0]%17), Y: origin + float64(data[1]%17), ID: uint64(len(pts))})
	}
	return qy, pts, origin
}

// stopScript is the inverse of decodeStop at origin 0: q in lattice units
// (halves allowed), then the sites of the objects.
func stopScript(qx, qy float64, l, w, n int, sites ...[2]byte) []byte {
	out := []byte{byte(2 * qx), byte(2 * qy), byte(l - 1), byte(w - 1), byte(n - 1), 0}
	for _, s := range sites {
		out = append(out, s[0], s[1])
	}
	return out
}

// stopRun is what checkStopScript saw of plain NWC under MeasureMax.
type stopRun struct {
	res           Result
	served, paper Stats
	// Trace counters: never queued, stopped at the bound, groups emitted,
	// and anchors the box cut — alone, and under a shared bound set just
	// above the answer.
	cut, stopped, emitted, clipped, sharedClipped int64
	within, objects                               int // objects inside the answer's distance (slack band included), and all of them
	edge, corner                                  int // objects on the edge of the answer's box, and inside it but beyond the answer
	// The seed (+Inf for none) and, when W0 holds n objects, its group: the
	// n nearest of them.
	seed      float64
	seedGroup []geom.Point
	// kNWC (k = 2, m = 1) under plain NWC: its Stats under MeasureMax, how
	// often its bound rose there and the lowest it ever was, and its answer
	// and both executions' trace counters under each measure.
	kServed               Stats
	rises                 int
	low                   float64
	kGroups               map[Measure][]Group
	kCounts, kCountsPaper map[Measure][trace.CounterCount]int64
}

// watchedKNWC is Engine.KNWC with an eye on the pool: it also counts the
// offers that left the k-th distance farther than they found it, and
// returns the lowest it ever was. Its pool keeps ties under x.Paper too:
// the paper's traversal with the serving answer rule, the reference the
// serving execution's work is held to. Pool traffic is counted on x.Rec,
// as KNWC counts it.
func watchedKNWC(eng *Engine, kq KNWCQuery, scheme Scheme, measure Measure, x Exec) (groups []Group, st Stats, rises int, low float64, err error) {
	pool := newKNWCState(kq.K, kq.M)
	defer pool.release()
	low = math.Inf(1)
	take := func(dist float64, sel []distPoint) bool {
		before := pool.bound()
		in := pool.offer(dist, sel)
		if pool.bound() > before {
			rises++
		}
		low = min(low, pool.bound())
		return in
	}
	pool.q = kq.Q
	st, err = eng.search(context.Background(), kq.Query, scheme, collector{pool.bound, take, pool.kth}, measure, x, false, nil)
	x.Rec.Count(trace.CtrDedupOffered, int64(pool.offered))
	x.Rec.Count(trace.CtrDedupAccepted, int64(pool.accepted))
	return pool.result(kq.Query), st, rises, low, err
}

// noMoreWork reports whether a search that stops at the bound did no more
// of anything than the paper's execution. Two counters are not work: node
// visits, which the memo moves between anchors (TestSharedEqualsPerAnchor
// sums them over queries), and objects skipped, which the box raises — DEP
// cancels an anchor on what is left of its region where the paper's
// execution reads all of it (the fuzzer's first finding here).
func noMoreWork(st, paper Stats) bool {
	return st.ObjectsProcessed <= paper.ObjectsProcessed &&
		st.NodesPruned <= paper.NodesPruned && st.WindowQueries <= paper.WindowQueries &&
		st.CandidateWindows <= paper.CandidateWindows && st.QualifiedWindows <= paper.QualifiedWindows &&
		st.GridProbes <= paper.GridProbes
}

// ruleCounts sums what the stop rule and its box counted on rec: 0 where
// the rule is off.
func ruleCounts(rec *trace.Recorder) int64 {
	c := rec.Counters()
	return c[trace.CtrNeverQueued] + c[trace.CtrStoppedAtBound] + c[trace.CtrClipped]
}

// checkStopScript holds the serving execution to the paper's on one
// script: under every scheme and measure the two return the same Result,
// bit for bit, which is the oracle's; the same again under a shared bound
// set at or just above the optimum, and the same as each other under one
// an ulp below. Under MeasureMax the serving execution does no more of
// anything than the paper's, and under the three schemes that prune no
// node it processes exactly the objects inside the answer's distance;
// NWC under the other measures, which has no reach, no filter and no box,
// does no more of anything either and ends at most once, when no window can
// give a group that comes before the one it holds. kNWC stops at the reach
// of its k-th distance under all four. It is held to the paper's traversal
// with a pool that keeps ties (watchedKNWC): the two return the oracle's
// groups, the pool lets in as many offers, and the serving execution does
// no more of anything, cuts nothing off the queue or off a search region,
// and ends at the bound at most once. The paper's own kNWC, whose pool
// refuses ties and orders them its own way, may pick other groups after
// its first, and so fewer or more: it is held to the oracle's first distance.
func checkStopScript(t *testing.T, data []byte) (run stopRun) {
	t.Helper()
	qy, pts, origin := decodeStop(data)
	if qy.N == 0 {
		return run
	}
	// Cells of four lattice steps: DEP has something to say about a region
	// the box has cut.
	eng, err := engineOver(pts, geom.NewRect(origin, origin, origin+16, origin+16), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run.objects = len(pts)
	run.seed, run.seedGroup = seedOf(t, eng, qy), w0Group(qy, pts)
	if wantSeed := math.Inf(1); run.seedGroup != nil {
		wantSeed = qy.Q.Dist(run.seedGroup[qy.N-1])
		if wantSeed*wantSeed < 0x1p-1022 {
			wantSeed = math.Inf(1)
		}
		if run.seed != wantSeed {
			t.Fatalf("%+v over %v: seed %v, W0's group %v gives %v", qy, pts, run.seed, run.seedGroup, wantSeed)
		}
	}
	for _, measure := range allMeasures {
		want := BruteForceNWC(pts, qy, measure)
		// The lattice keeps W0's edges exact, and by the lemma a seed then
		// lies at or above a group (TestSeedFallback is what happens otherwise).
		if measure == MeasureMax && !(want.Found && want.Dist <= run.seed || math.IsInf(run.seed, 1)) {
			t.Fatalf("%+v over %v: seed %v, oracle %+v", qy, pts, run.seed, want)
		}
		if measure == MeasureMax {
			for _, p := range pts {
				inside := !want.Found || p.Dist2(qy.Q) <= want.Dist*want.Dist*stopSlack
				side := math.Max(math.Abs(p.X-qy.Q.X), math.Abs(p.Y-qy.Q.Y))
				if inside {
					run.within++
				}
				if want.Found && side == want.Dist {
					run.edge++
				}
				if !inside && side < want.Dist {
					run.corner++
				}
			}
		}
		for _, scheme := range PaperSchemes {
			at := fmt.Sprintf("%v %v %+v over %v", scheme, measure, qy, pts)
			rec := trace.New()
			served, st, err := eng.NWC(ctx, qy, scheme, measure, Exec{Rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			paper, stPaper, err := eng.NWC(ctx, qy, scheme, measure, Exec{Paper: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(served, paper) {
				t.Fatalf("%s: served %+v, the paper's execution %+v", at, served, paper)
			}
			if !reflect.DeepEqual(served, want) {
				t.Fatalf("%s: served %+v, oracle %+v", at, served, want)
			}
			if served.Found {
				checkWindow(t, at, qy, served.Group, measure == MeasureWindow)
			}
			if measure != MeasureMax {
				if c := rec.Counters(); !noMoreWork(st, stPaper) || c[trace.CtrStoppedAtBound] > 1 || c[trace.CtrNeverQueued]+c[trace.CtrClipped] != 0 {
					t.Fatalf("%s: stats %+v and counters %v, the paper's %+v", at, st, c, stPaper)
				}
			} else if !noMoreWork(st, stPaper) {
				t.Fatalf("%s: stats %+v exceed the paper's %+v", at, st, stPaper)
			} else if !scheme.DIP() && !scheme.DEP() && st.ObjectsProcessed != run.within {
				t.Fatalf("%s: %d objects processed, %d lie within the answer's distance", at, st.ObjectsProcessed, run.within)
			}
			if measure == MeasureMax && scheme == SchemeNWC {
				run.res, run.served, run.paper = served, st, stPaper
				c := rec.Counters()
				run.cut, run.stopped, run.clipped = c[trace.CtrNeverQueued], c[trace.CtrStoppedAtBound], c[trace.CtrClipped]
				run.emitted = c[trace.CtrGroupsEmitted]
			}
			// kNWC stops at the reach of its k-th distance, which can rise;
			// it has no filter and no box.
			kq := KNWCQuery{Query: qy, K: 2, M: 1}
			rec, recPaper := trace.New(), trace.New()
			groups, kst, err := eng.KNWC(ctx, kq, scheme, measure, Exec{Rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			groupsPaper, _, err := eng.KNWC(ctx, kq, scheme, measure, Exec{Rec: recPaper, Paper: true})
			if err != nil {
				t.Fatal(err)
			}
			// The paper's execution breaks ties its own way, which can move
			// its later groups (DESIGN.md §2): its first group's distance is
			// the optimum. Its traversal with a pool that keeps ties is the
			// reference for the serving execution's work.
			recRef := trace.New()
			groupsRef, kstRef, _, _, err := watchedKNWC(eng, kq, scheme, measure, Exec{Rec: recRef, Paper: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				checkWindow(t, at, qy, g, false)
			}
			if want := BruteForceKNWC(pts, kq, measure); !sameGroups(groups, want) || !sameGroups(groupsRef, want) ||
				len(groupsPaper) == 0 != (len(want) == 0) || len(want) > 0 && groupsPaper[0].Dist != want[0].Dist {
				t.Fatalf("%s: kNWC served %+v, the paper's traversal %+v and execution %+v, oracle %+v", at, groups, groupsRef, groupsPaper, want)
			}
			c, cRef, cPaper := rec.Counters(), recRef.Counters(), recPaper.Counters()
			if !noMoreWork(kst, kstRef) || c[trace.CtrDedupAccepted] != cRef[trace.CtrDedupAccepted] ||
				c[trace.CtrStoppedAtBound] > 1 || c[trace.CtrNeverQueued]+c[trace.CtrClipped] != 0 || ruleCounts(recRef)+ruleCounts(recPaper) != 0 {
				t.Fatalf("%s: kNWC stats %+v and counters %v, the paper's traversal's %+v and %v", at, kst, c, kstRef, cRef)
			}
			if scheme == SchemeNWC {
				if run.kGroups == nil {
					run.kGroups = map[Measure][]Group{}
					run.kCounts, run.kCountsPaper = map[Measure][trace.CounterCount]int64{}, map[Measure][trace.CounterCount]int64{}
				}
				run.kGroups[measure], run.kCounts[measure], run.kCountsPaper[measure] = groups, c, cPaper
			}
			if measure == MeasureMax && scheme == SchemeNWC {
				run.kServed = kst
				var watched []Group
				if watched, _, run.rises, run.low, err = watchedKNWC(eng, kq, scheme, measure, Exec{}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(watched, groups) {
					t.Fatalf("%s: kNWC watched %+v, unwatched %+v", at, watched, groups)
				}
			}
			if !want.Found || served.Dist == 0 {
				continue
			}
			// A bound another shard found: the answer survives one at or just
			// above it; under MeasureMax one below it leaves nothing to report
			// (the other measures' gates may let a group beyond the bound
			// through).
			for _, pre := range []float64{served.Dist * (1 + 1e-12), served.Dist, math.Nextafter(served.Dist, 0)} {
				var got [2]Result
				var sts [2]Stats
				rec = trace.New()
				for i, x := range []Exec{{Rec: rec}, {Paper: true}} {
					x.Bound = rstar.NewSharedBound()
					x.Bound.Tighten(pre)
					if got[i], sts[i], err = eng.NWC(ctx, qy, scheme, measure, x); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("%s under a shared bound of %v: served %+v, the paper's execution %+v", at, pre, got[0], got[1])
				}
				if pre >= served.Dist && !reflect.DeepEqual(got[0], served) || pre < served.Dist && measure == MeasureMax && got[0].Found {
					t.Fatalf("%s under a shared bound of %v: %+v, alone %+v", at, pre, got[0], served)
				}
				if measure == MeasureMax && !noMoreWork(sts[0], sts[1]) {
					t.Fatalf("%s under a shared bound of %v: stats %+v exceed the paper's %+v", at, pre, sts[0], sts[1])
				}
				// A cell at or below the answer is at or below the seed: the
				// seeded search's answer is the answer, and nothing runs twice.
				if measure == MeasureMax && pre <= served.Dist && sts[0].ObjectsProcessed > st.ObjectsProcessed {
					t.Fatalf("%s under a shared bound of %v: %d objects processed, %d alone", at, pre, sts[0].ObjectsProcessed, st.ObjectsProcessed)
				}
				if measure == MeasureMax && scheme == SchemeNWC && pre > served.Dist {
					run.sharedClipped = rec.Counters()[trace.CtrClipped]
				}
			}
		}
	}
	return run
}

// stopScripts are the situations the stop rule must get right, by name;
// each is also a file of FuzzStopAtBound's seed corpus.
var stopScripts = map[string][]byte{
	// The answer {(8,8),(11,12)} lies 5 away; (5,4), (12,5) and (8,13) lie
	// exactly 5 away too and must be processed, (8,14) must not.
	"at-the-bound": stopScript(8, 8, 4, 4, 2, [2]byte{8, 8}, [2]byte{11, 12}, [2]byte{5, 4}, [2]byte{12, 5}, [2]byte{8, 13}, [2]byte{8, 14}, [2]byte{1, 1}, [2]byte{16, 2}, [2]byte{15, 15}),
	// The answer {(9,9),(11,13)} lies Hypot(3,5) away, whose square is an
	// ulp under 34, the Dist2 of its own far member and of three objects
	// more: only the slack band keeps them inside the limit.
	"off-by-an-ulp": stopScript(8, 8, 3, 5, 2, [2]byte{9, 9}, [2]byte{11, 13}, [2]byte{13, 11}, [2]byte{5, 3}, [2]byte{3, 5}, [2]byte{2, 2}, [2]byte{15, 15}, [2]byte{8, 16}),
	// Three objects a site, three sites: groups of one site's objects tie.
	"duplicate-sites": stopScript(7.5, 7.5, 3, 3, 3, [2]byte{9, 9}, [2]byte{9, 9}, [2]byte{9, 9}, [2]byte{6, 6}, [2]byte{6, 6}, [2]byte{6, 6}, [2]byte{9, 6}, [2]byte{9, 6}, [2]byte{9, 6}, [2]byte{0, 16}, [2]byte{16, 0}),
	// q shares its x with one column of anchors and its y with one row.
	"on-the-axes": stopScript(8, 8, 3, 5, 3, [2]byte{8, 10}, [2]byte{8, 5}, [2]byte{8, 12}, [2]byte{10, 8}, [2]byte{5, 8}, [2]byte{12, 8}, [2]byte{8, 8}, [2]byte{2, 2}, [2]byte{14, 14}, [2]byte{8, 16}, [2]byte{16, 8}),
	// The best group has q inside its bounding box: one object in each
	// quadrant; its rightmost member is the anchor that finds it.
	"straddling": stopScript(8, 8, 6, 6, 4, [2]byte{10, 9}, [2]byte{6, 10}, [2]byte{7, 6}, [2]byte{9, 5}, [2]byte{14, 14}, [2]byte{15, 13}, [2]byte{13, 15}, [2]byte{14, 12}, [2]byte{1, 2}, [2]byte{2, 1}),
	// All to the left of q: the leftmost member anchors the group.
	"left-of-q": stopScript(12, 8, 5, 4, 3, [2]byte{9, 8}, [2]byte{6, 9}, [2]byte{7, 7}, [2]byte{4, 8}, [2]byte{2, 2}, [2]byte{15, 15}, [2]byte{16, 8}, [2]byte{3, 12}),
	// Eight anchors on one circle, four groups at one distance.
	"equidistant": stopScript(8, 8, 2, 2, 2, [2]byte{11, 12}, [2]byte{12, 11}, [2]byte{5, 4}, [2]byte{4, 5}, [2]byte{11, 4}, [2]byte{12, 5}, [2]byte{5, 12}, [2]byte{4, 11}, [2]byte{8, 2}, [2]byte{16, 16}, [2]byte{0, 0}),
	"n-is-1":      stopScript(3.5, 12, 1, 1, 1, [2]byte{5, 12}, [2]byte{2, 12}, [2]byte{3, 14}, [2]byte{4, 10}, [2]byte{9, 9}, [2]byte{16, 1}, [2]byte{0, 0}, [2]byte{12, 12}, [2]byte{7, 3}),
	// No window holds six: there is never a bound and the whole tree is walked.
	"n-too-large": stopScript(8, 8, 2, 2, 6, [2]byte{8, 8}, [2]byte{9, 9}, [2]byte{9, 8}, [2]byte{8, 9}, [2]byte{10, 10}, [2]byte{3, 3}, [2]byte{4, 3}, [2]byte{3, 4}, [2]byte{13, 2}, [2]byte{2, 13}, [2]byte{14, 14}, [2]byte{15, 15}),
	// The first group found is far; nearer anchors improve on it thrice.
	"falling-bound": stopScript(0, 0, 8, 2, 3, [2]byte{1, 0}, [2]byte{2, 9}, [2]byte{3, 9}, [2]byte{4, 9}, [2]byte{9, 3}, [2]byte{10, 3}, [2]byte{11, 3}, [2]byte{6, 6}, [2]byte{7, 6}, [2]byte{8, 6}, [2]byte{16, 16}, [2]byte{15, 16}, [2]byte{16, 15}, [2]byte{12, 12}),

	// The bound's box. Unseeded, (8,9) would find {(8,9),(4,11)} at 5, and
	// (11,8), inside the box [3,13]², would pair with (11,8), (8,9) and (4,11)
	// but not with (10,14) above it, whose window holds the answer
	// {(8,9),(11,8)} all the same. W0 = [4,12]² holds the answer, and its
	// seed, just above 3, cuts both anchors first; the -unseeded twin below
	// keeps the scenario.
	"partner-outside-box": stopScript(8, 8, 8, 8, 2, [2]byte{8, 9}, [2]byte{4, 11}, [2]byte{11, 8}, [2]byte{10, 14}, [2]byte{16, 16}, [2]byte{16, 0}),
	// The answer {(8,8),(11,12)} lies 5 away; (13,8), as far, is an anchor on
	// the box's right edge and must find itself in what is left of its
	// region, with (13,9) on that edge and (9,13) on the top one.
	"on-the-box-edge": stopScript(8, 8, 4, 6, 2, [2]byte{8, 8}, [2]byte{11, 12}, [2]byte{13, 8}, [2]byte{13, 9}, [2]byte{9, 13}, [2]byte{1, 1}, [2]byte{16, 2}),
	// (12,12) and (4,4) lie in the box's corners, beyond the answer's 5:
	// fetched and counted with the region of (13,8), never under the bound.
	"box-corner": stopScript(8, 8, 4, 6, 2, [2]byte{8, 8}, [2]byte{11, 12}, [2]byte{13, 8}, [2]byte{12, 12}, [2]byte{4, 4}, [2]byte{1, 15}, [2]byte{16, 2}),
	// Unseeded, (11,8) would be cut to the box of the 5 that (8,9) found and
	// then improve on it twice, to {(11,8),(10,5)} and to {(8,9),(11,8)}: its
	// box going stale under it, and (4,11), outside the later ones, still
	// counted. W0 holds the answer, which (11,8) emits at once under the
	// seed; the twin keeps the scenario.
	"bound-inside-anchor": stopScript(8, 8, 8, 8, 2, [2]byte{8, 9}, [2]byte{4, 11}, [2]byte{11, 8}, [2]byte{10, 5}, [2]byte{16, 2}, [2]byte{15, 16}),
	// Alone, the first anchor has only the seed's box (W0 holds the answer;
	// the twin has no seed and no box); under a shared bound just above the
	// answer it is cut like the rest, and finds nothing.
	"shared-below-local": stopScript(8, 8, 8, 8, 2, [2]byte{8, 7}, [2]byte{4, 5}, [2]byte{11, 7}, [2]byte{10, 11}, [2]byte{0, 14}, [2]byte{15, 0}),
	// The answer lies 0.5 from a q that lies 2⁴⁰ from the origin: the box's
	// sides round at 2⁻¹², 2,048 times the bound's own precision. W0 holds
	// the answer, whose seed cuts the first anchor too.
	"tiny-bound-far-origin": farFrom(2, stopScript(8.5, 8, 2, 2, 2, [2]byte{8, 8}, [2]byte{9, 8}, [2]byte{8, 9}, [2]byte{9, 9}, [2]byte{3, 3}, [2]byte{14, 12}, [2]byte{8, 12})),

	// kNWC (k = 2, m = 1). {(3,8),(5,4),(1,7)} at 4.03 and {(3,8),(3,10),(7,12)}
	// at 4.92 fill the selection; three anchors later (1,7) finds
	// {(3,8),(3,10),(1,7)}, also at 4.03 and ahead of the first by its key,
	// which shares two objects with each of them: both leave, and the second
	// group ends up at 6.26 — beyond a bound the search had pruned with.
	"knwc-rising-bound": stopScript(5, 7.5, 5, 5, 3, [2]byte{3, 8}, [2]byte{3, 10}, [2]byte{5, 4}, [2]byte{1, 7}, [2]byte{7, 12}, [2]byte{6, 14}, [2]byte{2, 13}, [2]byte{16, 1}),
	// Groups of one: the second nearest object, (7,7), sets the bound at 3√2,
	// a 2 × 2 window's diagonal is 2√2, and (9,9) lies 5√2 away, exactly at the
	// reach: processed. (10,8), the next site out (√52), ends the search.
	"knwc-at-the-reach": stopScript(4, 4, 2, 2, 1, [2]byte{5, 4}, [2]byte{7, 7}, [2]byte{9, 9}, [2]byte{10, 8}, [2]byte{16, 16}),
	// Anchor (9,8) has two partners, itself and (6,9), and the two nearest of
	// both windows are {(9,8),(8,6)}: offered once. The paper's execution
	// offers it twice; under MeasureWindow the second window is no nearer
	// than the first, so the serving one skips it there too.
	"repeat-window": stopScript(8, 8, 4, 4, 2, [2]byte{9, 8}, [2]byte{8, 6}, [2]byte{6, 9}, [2]byte{16, 16}),
	// Under MeasureWindow {(8,10),(7,10)} is found 6 away through a window of
	// (8,10) and then 2 away through one of (7,10), which replaces it; and
	// {(6,13),(8,10)} comes twice running from each of its two anchors, 2 and
	// then 3 away: the second, no nearer, is skipped as a repeat. Under the
	// other measures those two are the script's repeats.
	"repeat-window-measure": stopScript(8, 16, 3, 4, 2, [2]byte{8, 10}, [2]byte{6, 13}, [2]byte{5, 6}, [2]byte{7, 10}, [2]byte{16, 10}, [2]byte{6, 9}),
	// Three anchors leave the bound at 2 and [4,11] × [4,14] in the memo. Of
	// the region of (12,8), [8,12] × [4,12], the bound's box keeps [8,10] ×
	// [6,10], all of it fetched, with (9,8) inside the bound and (8,10) on it:
	// the two objects a group at the bound needs, and not the k-th group's,
	// so a window query (TestCountBeforeFetch moves (8,10)).
	"count-before-fetch": stopScript(8, 8, 4, 4, 2, [2]byte{9, 8}, [2]byte{7, 9}, [2]byte{8, 10}, [2]byte{12, 8}, [2]byte{16, 16}),

	// The seed. W0 = [0,8] × [4,9] holds (1,4), (0,6) and (8,9); its two
	// nearest set the seed at 4.03. {(3,10),(0,6)} — (3,10) lies above W0 —
	// ties with {(1,4),(0,6)}, the seed's own group, and shares its far
	// member: the answer is the first, whose nearer member is nearer.
	"seed-tie": stopScript(4, 6.5, 8, 5, 2, [2]byte{0, 6}, [2]byte{1, 4}, [2]byte{3, 10}, [2]byte{8, 9}),
	// W0 = [6,10] × [5,11] holds exactly three objects, the answer: every
	// anchor, the first too, is cut to the box of the seed just above 3.
	"w0-holds-n": stopScript(8, 8, 4, 6, 3, [2]byte{9, 9}, [2]byte{7, 6}, [2]byte{8, 11}, [2]byte{12, 8}, [2]byte{5, 12}, [2]byte{13, 3}, [2]byte{2, 14}, [2]byte{15, 15}),
	// (8,11) moved to (8,12), out of W0: two objects, no seed, and the search
	// does what it did without one, counter for counter.
	"w0-holds-n-minus-1": stopScript(8, 8, 4, 6, 3, [2]byte{9, 9}, [2]byte{7, 6}, [2]byte{8, 12}, [2]byte{12, 8}, [2]byte{5, 12}, [2]byte{13, 3}, [2]byte{2, 14}, [2]byte{15, 15}),

	// Twins of four box scripts whose W0 holds fewer than n: the seed now
	// gets to those scenarios first, and these keep them on the unseeded
	// path. (5,0) finds {(5,0),(3,5)} at 4.47; (8,4) is cut to its box and
	// loses (7,6) above it, whose window holds the answer {(5,0),(8,4)} all
	// the same: two candidate windows, not three.
	"partner-outside-box-unseeded": stopScript(5, 1, 3, 7, 2, [2]byte{8, 4}, [2]byte{3, 5}, [2]byte{5, 0}, [2]byte{7, 6}, [2]byte{11, 14}),
	// (3,5) has two objects to its region: one group, at 4.92. (7,6), cut to
	// its box, improves on it twice, to {(7,6),(7,10)} and {(3,5),(7,6)}.
	"bound-inside-anchor-unseeded": stopScript(3, 7.5, 5, 8, 2, [2]byte{3, 5}, [2]byte{14, 10}, [2]byte{7, 10}, [2]byte{7, 6}, [2]byte{1, 12}),
	// W0 is empty: alone the first anchor has no box, under a shared bound
	// just above the answer it is cut like the second.
	"shared-below-local-unseeded": stopScript(10, 8.5, 1, 8, 2, [2]byte{1, 15}, [2]byte{2, 12}, [2]byte{0, 16}, [2]byte{2, 11}),
	// The answer lies 1 from a q that lies 2⁴⁰ from the origin, and W0 holds
	// only its nearer member, q's own site.
	"tiny-bound-far-origin-unseeded": farFrom(2, stopScript(14, 4, 8, 1, 2, [2]byte{7, 11}, [2]byte{6, 4}, [2]byte{14, 4}, [2]byte{14, 5})),
}

// seedOf is the seed NWC draws from W0 under the max measure (DESIGN.md §19
// "The seed"), +Inf for none.
func seedOf(t *testing.T, eng *Engine, qy Query) float64 {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	seed, err := eng.seedMemo(eng.tree.Reader(context.Background(), nil), false, 0, qy, sc)
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

// w0Group returns the n nearest of the objects in W0, the l × w window
// centred on q, or nil when it holds fewer than n.
func w0Group(qy Query, pts []geom.Point) []geom.Point {
	w0 := geom.RectAround(qy.Q).Buffer(qy.L/2, qy.W/2)
	var in []geom.Point
	for _, p := range pts {
		if w0.ContainsPoint(p) {
			in = append(in, p)
		}
	}
	if len(in) < qy.N {
		return nil
	}
	return nClosest(qy.Q, in, qy.N)
}

// farFrom moves a script's lattice: origin 1 is 2²⁰, 2 is 2⁴⁰.
func farFrom(origin byte, script []byte) []byte {
	script[5] = origin
	return script
}

// TestStopAtBoundTable runs the named scripts, checks that each did what
// its name says, and that each is in the fuzz corpus as written here.
func TestStopAtBoundTable(t *testing.T) {
	for name, script := range stopScripts {
		run := checkStopScript(t, script)
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzStopAtBound", name))
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", script); err != nil || string(file) != want {
			t.Errorf("%s: corpus file holds %q (%v), want %q", name, file, err, want)
		}
		if run.paper.ObjectsProcessed != run.objects {
			t.Errorf("%s: the paper's plain NWC processed %d of %d objects", name, run.paper.ObjectsProcessed, run.objects)
		}
		if name == "n-too-large" {
			if run.res.Found || run.stopped != 0 || run.cut != 0 || run.served.ObjectsProcessed != run.objects {
				t.Errorf("%s: found=%v stopped=%d never-queued=%d, %d of %d objects processed: want the whole tree walked",
					name, run.res.Found, run.stopped, run.cut, run.served.ObjectsProcessed, run.objects)
			}
			continue
		}
		// Every other script has objects beyond its answer: the search must
		// have ended at the bound, or left off the queue all that lay beyond.
		if !run.res.Found || run.within == run.objects || run.stopped == 0 && run.cut == 0 {
			t.Errorf("%s: found=%v, %d of %d objects within the answer's distance, stopped=%d never-queued=%d",
				name, run.res.Found, run.within, run.objects, run.stopped, run.cut)
		}
		kMax, kMaxPaper := run.kCounts[MeasureMax], run.kCountsPaper[MeasureMax]
		kWin, kWinPaper := run.kCounts[MeasureWindow], run.kCountsPaper[MeasureWindow]
		switch name {
		case "at-the-bound":
			if run.res.Dist != 5 || run.within != 5 {
				t.Errorf("%s: answer at %v with %d objects within it, want 5 and 5", name, run.res.Dist, run.within)
			}
		case "off-by-an-ulp":
			if d := run.res.Dist; d*d >= 34 || run.within != 5 {
				t.Errorf("%s: answer at %v (squared %v) with %d objects within it, want under 34 and 5", name, d, d*d, run.within)
			}
		case "straddling":
			if w := run.res.Window; !(w.MinX < 8 && w.MaxX > 8 && w.MinY < 8 && w.MaxY > 8) {
				t.Errorf("%s: the answer's window %v does not hold q", name, w)
			}
		case "partner-outside-box":
			// W0's two nearest are the answer: the seed, 3, cuts (8,9) to one
			// object and (11,8) to two windows.
			if run.clipped != 2 || run.served.CandidateWindows != 2 || run.paper.CandidateWindows != 6 {
				t.Errorf("%s: %d anchors cut, %d candidate windows (the paper's %d), want 2, 2 and 6",
					name, run.clipped, run.served.CandidateWindows, run.paper.CandidateWindows)
			}
		case "partner-outside-box-unseeded":
			if run.clipped != 1 || run.served.CandidateWindows != 2 || run.paper.CandidateWindows != 3 {
				t.Errorf("%s: %d anchors cut, %d candidate windows (the paper's %d), want 1, 2 and 3",
					name, run.clipped, run.served.CandidateWindows, run.paper.CandidateWindows)
			}
		case "on-the-box-edge":
			if run.res.Dist != 5 || run.within != 3 || run.edge != 3 || run.clipped != 1 {
				t.Errorf("%s: answer at %v, %d objects within it, %d on its box's edge, %d anchors cut, want 5, 3, 3 and 1",
					name, run.res.Dist, run.within, run.edge, run.clipped)
			}
		case "box-corner":
			if run.res.Dist != 5 || run.corner != 2 || run.clipped == 0 {
				t.Errorf("%s: answer at %v, %d objects in its box's corners, %d anchors cut, want 5, 2 and some",
					name, run.res.Dist, run.corner, run.clipped)
			}
		case "bound-inside-anchor":
			// W0's two nearest are the answer: (11,8) emits it at once.
			if run.served.ObjectsProcessed != 2 || run.emitted != 1 || run.clipped != 2 {
				t.Errorf("%s: %d anchors, %d groups emitted, %d anchors cut, want 2, 1 and 2",
					name, run.served.ObjectsProcessed, run.emitted, run.clipped)
			}
		case "bound-inside-anchor-unseeded":
			if run.served.ObjectsProcessed != 2 || run.emitted != 3 || run.clipped != 1 {
				t.Errorf("%s: %d anchors, %d groups emitted, %d anchors cut, want 2, 3 and 1",
					name, run.served.ObjectsProcessed, run.emitted, run.clipped)
			}
		case "shared-below-local":
			// The seed gives the first anchor a box alone too.
			if run.clipped != 2 || run.sharedClipped != 2 {
				t.Errorf("%s: %d anchors cut alone and %d under the shared bound, want 2 and 2", name, run.clipped, run.sharedClipped)
			}
		case "shared-below-local-unseeded":
			if run.clipped != 1 || run.sharedClipped != 2 {
				t.Errorf("%s: %d anchors cut alone and %d under the shared bound, want 1 and 2", name, run.clipped, run.sharedClipped)
			}
		case "tiny-bound-far-origin":
			// The seed, just above 0.5, cuts the first anchor as well.
			if run.res.Dist != 0.5 || run.within != 2 || run.clipped != 2 {
				t.Errorf("%s: answer at %v, %d objects within it, %d anchors cut, want 0.5, 2 and 2", name, run.res.Dist, run.within, run.clipped)
			}
		case "tiny-bound-far-origin-unseeded":
			if run.res.Dist != 1 || run.within != 2 || run.clipped != 1 {
				t.Errorf("%s: answer at %v, %d objects within it, %d anchors cut, want 1, 2 and 1", name, run.res.Dist, run.within, run.clipped)
			}
		case "seed-tie":
			// The paper's execution emits {(3,10),(8,9)} at 4.72 first; under
			// the seed nothing but the answer is emitted, and of the two sets
			// at the seed's distance it is the least.
			qy, _, _ := decodeStop(script)
			seedGroup := Group{Objects: run.seedGroup, Dist: run.seed}
			if g := run.seedGroup; run.seed != run.res.Dist || reflect.DeepEqual(run.res.Objects, g) ||
				run.res.Objects[1] != g[1] || CompareGroups(qy.Q, run.res.Group, seedGroup) >= 0 || run.emitted != 1 {
				t.Errorf("%s: seed %v from %v, answer %+v, %d emitted: want the seed's distance, its far member, a lesser set, and 1",
					name, run.seed, g, run.res, run.emitted)
			}
		case "w0-holds-n":
			if !reflect.DeepEqual(run.seedGroup, run.res.Objects) || run.seed != 3 || run.clipped != 3 || run.served.ObjectsProcessed != 3 {
				t.Errorf("%s: seed %v from %v, answer %+v, %d of %d anchors cut: want the answer's, 3, and all 3",
					name, run.seed, run.seedGroup, run.res, run.clipped, run.served.ObjectsProcessed)
			}
		case "w0-holds-n-minus-1":
			st := run.served
			st.NodeVisits = 0
			if want := (Stats{ObjectsProcessed: 4, WindowQueries: 4, CandidateWindows: 2, QualifiedWindows: 1}); !math.IsInf(run.seed, 1) || st != want ||
				run.cut != 3 || run.stopped != 1 || run.emitted != 1 || run.clipped != 3 {
				t.Errorf("%s: seed %v, stats %+v, never-queued=%d stopped=%d emitted=%d clipped=%d: want none, %+v, 3, 1, 1 and 3",
					name, run.seed, st, run.cut, run.stopped, run.emitted, run.clipped, want)
			}
		case "knwc-rising-bound":
			if g := run.kGroups[MeasureMax]; run.rises != 1 || len(g) != 2 || !(g[1].Dist > run.low) {
				t.Errorf("%s: the bound rose %d times from as low as %v, answer %+v: want one rise and a second group beyond it", name, run.rises, run.low, g)
			}
		case "knwc-at-the-reach":
			if g := run.kGroups[MeasureMax]; len(g) != 2 || g[1].Dist != math.Hypot(3, 3) || kMax[trace.CtrStoppedAtBound] != 1 || run.kServed.ObjectsProcessed != 3 {
				t.Errorf("%s: answer %+v, stopped-at-bound=%d after %d objects, want the second group 3√2 away, 1 and 3",
					name, g, kMax[trace.CtrStoppedAtBound], run.kServed.ObjectsProcessed)
			}
		case "repeat-window":
			if kMax[trace.CtrWindowsRepeated] != 1 || kMax[trace.CtrDedupOffered] != 3 || kMaxPaper[trace.CtrDedupOffered] != 4 ||
				kWin[trace.CtrWindowsRepeated] != 1 || kWin[trace.CtrDedupOffered] != 3 || kWinPaper[trace.CtrDedupOffered] != 3 {
				t.Errorf("%s: %d windows repeated and %d offered of the paper's %d; under MeasureWindow %d and %d of %d: want 1, 3 of 4, 1 and 3 of 3",
					name, kMax[trace.CtrWindowsRepeated], kMax[trace.CtrDedupOffered], kMaxPaper[trace.CtrDedupOffered],
					kWin[trace.CtrWindowsRepeated], kWin[trace.CtrDedupOffered], kWinPaper[trace.CtrDedupOffered])
			}
		case "repeat-window-measure":
			if g := run.kGroups[MeasureWindow]; kWin[trace.CtrWindowsRepeated] != 2 || kWin[trace.CtrDedupOffered] != 4 || kWin[trace.CtrDedupAccepted] != 3 ||
				len(g) != 2 || g[0].Dist != 2 || g[1].Dist != 2 || kMax[trace.CtrWindowsRepeated] != 2 {
				t.Errorf("%s: under MeasureWindow %d windows repeated, %d offered, %d entered, answer %+v; %d repeated under MeasureMax: want 2, 4, 3, both groups 2 away, and 2",
					name, kWin[trace.CtrWindowsRepeated], kWin[trace.CtrDedupOffered], kWin[trace.CtrDedupAccepted], g, kMax[trace.CtrWindowsRepeated])
			}
		case "count-before-fetch":
			if run.kServed.ObjectsProcessed != 4 || run.kServed.WindowQueries != 4 || kMax[trace.CtrAnchorsGated] != 0 || kMaxPaper[trace.CtrAnchorsGated] != 0 {
				t.Errorf("%s: %d objects processed, %d window queries, %d anchors gated (the paper's %d), want 4, 4, 0 and 0",
					name, run.kServed.ObjectsProcessed, run.kServed.WindowQueries, kMax[trace.CtrAnchorsGated], kMaxPaper[trace.CtrAnchorsGated])
			}
		}
	}
}

// TestCountBeforeFetch is count-before-fetch with (8,10) moved: of (12,8)'s
// region the bound's box keeps what the memo holds, and the anchor is dropped
// before its window query when that part holds under two objects within
// the bound — (7,6), √5 away and the bound, lies outside it — or two that
// are the k-th group's own — (8,6), on the bound, is its member: no other
// group within the bound can come of them, in both executions. With (8,6)
// the anchor (9,8) is dropped too: its region holds the k-th group and
// (7,9), which is before the group's farthest member but not before its
// first, (9,8), so no set there comes before it (DESIGN.md §2).
func TestCountBeforeFetch(t *testing.T) {
	for _, c := range []struct {
		moved         [2]byte
		kth           float64
		queries, gone int // window queries, anchors gated
	}{{[2]byte{7, 6}, math.Sqrt(5), 3, 1}, {[2]byte{8, 6}, 2, 2, 2}} {
		run := checkStopScript(t, stopScript(8, 8, 4, 4, 2, [2]byte{9, 8}, [2]byte{7, 9}, c.moved, [2]byte{12, 8}, [2]byte{16, 16}))
		kMax, kMaxPaper := run.kCounts[MeasureMax], run.kCountsPaper[MeasureMax]
		if g := run.kGroups[MeasureMax]; len(g) != 2 || g[1].Dist != c.kth || run.kServed.ObjectsProcessed != 4 || run.kServed.WindowQueries != c.queries ||
			kMax[trace.CtrAnchorsGated] != int64(c.gone) || kMaxPaper[trace.CtrAnchorsGated] != int64(c.gone) {
			t.Errorf("%v: answer %+v, %d objects processed, %d window queries, %d anchors gated (the paper's %d), want the second group %v away, 4, %d, %d and %d",
				c.moved, g, run.kServed.ObjectsProcessed, run.kServed.WindowQueries, kMax[trace.CtrAnchorsGated], kMaxPaper[trace.CtrAnchorsGated], c.kth, c.queries, c.gone, c.gone)
		}
	}
}

// checkWindow holds a group's window to DESIGN.md §2: it holds each of
// the objects, its sides are l and w up to rounding, and, for an NWC
// answer under MeasureWindow, its MINDIST is the answer's distance.
func checkWindow(t *testing.T, at string, qy Query, g Group, mindist bool) {
	t.Helper()
	w := g.Window
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(w.MinX)+math.Abs(w.MinY)+b) }
	if !near(w.Width(), qy.L) || !near(w.Height(), qy.W) || mindist && w.MinDist(qy.Q) != g.Dist {
		t.Fatalf("%s: window %v of %+v", at, w, g)
	}
	for _, o := range g.Objects {
		if !w.ContainsPoint(o) {
			t.Fatalf("%s: window %v misses %v", at, w, o)
		}
	}
}

// sameGroups is reflect.DeepEqual, with no groups and nil alike.
func sameGroups(a, b []Group) bool { return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b) }

// FuzzStopAtBound drives checkStopScript with byte-derived scripts; the
// seed corpus (testdata/fuzz/FuzzStopAtBound) is the table above.
func FuzzStopAtBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkStopScript(t, data) })
}

// TestStopScriptFindings runs checkStopScript on two scripts FuzzStopAtBound
// found. In the first, under MeasureAvg, three coincident objects have a
// mean that rounds below their distance: under a shared bound at the
// answer's distance the search found nothing while its counts took objects
// within the bound itself, not within b·avgSlack. In the second the paper's
// kNWC, which breaks a tie its own way, returns two groups where the answer
// has one.
func TestStopScriptFindings(t *testing.T) {
	for _, data := range []string{"700020000000", "0072207)7X77x878"} {
		checkStopScript(t, []byte(data))
	}
}

// TestQueueOrderReplay pins the queue's order on a recorded sequence of
// pushes and pops full of ties — equal distances between nodes, between
// objects, between the two, and between objects of one site — and shows it
// is the items' own order, not the heap's: the same pops come out, in the
// same order, when every item the stop rule would have left out (here:
// beyond 9) was never pushed. A heap that settled ties by where its items
// happened to sit passes the first half on its own sequence and fails the
// second — and then an execution that leaves items out takes equidistant
// anchors, and reports equidistant groups, in another order than the
// paper's.
func TestQueueOrderReplay(t *testing.T) {
	obj := func(d2 float64, x, y float64, id uint64) pqItem {
		return pqItem{dist2: d2, id: rstar.NodeID(7), point: geom.Point{X: x, Y: y, ID: id}}
	}
	node := func(d2 float64, id rstar.NodeID) pqItem { return pqItem{dist2: d2, isNode: true, id: id} }
	// An item is pushed, pop pops; the labels are what the pops must
	// return, in order.
	pop := pqItem{dist2: -1}
	script := []pqItem{
		node(0, 3), node(0, 1), node(0, 2), pop, pop,
		obj(4, 2, 0, 5), obj(4, 0, 2, 6), node(16, 9), obj(4, 0, 2, 4), node(4, 8), pop,
		obj(25, 5, 0, 1), obj(9, 3, 0, 2), obj(9, 0, 3, 3), node(25, 4), pop, pop, pop, pop,
		obj(9, 0, 3, 0), node(9, 6), obj(36, 6, 0, 7), node(9, 5), pop, pop, pop, pop, pop, pop, pop, pop, pop,
	}
	want := []string{
		"node 1", "node 2", "node 3", "node 8", "(0,2)#4", "(0,2)#6", "(2,0)#5",
		"node 5", "node 6", "(0,3)#0", "(0,3)#3", "(3,0)#2", "node 9", "node 4", "(5,0)#1", "(6,0)#7",
	}
	label := func(it pqItem) string {
		if it.isNode {
			return fmt.Sprintf("node %d", it.id)
		}
		return fmt.Sprintf("(%g,%g)#%d", it.point.X, it.point.Y, it.point.ID)
	}
	for _, limit := range []float64{math.Inf(1), 9} {
		var pq pqueue
		var got []string
		for _, it := range script {
			switch {
			case it == pop && len(pq) > 0:
				got = append(got, label(pq.pop()))
			case it != pop && it.dist2 <= limit:
				pq.push(it)
			}
		}
		wantHere := want
		if limit == 9 {
			wantHere = want[:12]
		}
		if !reflect.DeepEqual(got, wantHere) {
			t.Errorf("items within %v popped as %v, recorded %v", limit, got, wantHere)
		}
	}
}

// TestSeedFallback is the seed's one way to be wrong (DESIGN.md §19 "The
// seed"): W0's n nearest fit W0, but W0's edges q ± l/2 round, so they need
// not fit an l × w window. At 2⁵², where the spacing of float64 is 1, W0 of
// a 1 × 1 query centred on an integer q spans three integers along x: its
// two nearest objects, 1 either side of q, seed the bound just above 1, and
// no window holds both. The seeded search finds nothing, and NWC searches
// again without the seed — when the seed was the bound in force: under a
// shared cell above it, but not under one at it, where finding nothing at or
// under the cell is the answer. The
// interpreter's lattice (half steps up to 2⁴⁰) keeps W0's edges exact, so
// no stop script can get here.
func TestSeedFallback(t *testing.T) {
	o := float64(1 << 52)
	q := geom.Point{X: o + 1, Y: o + 8}
	pts := []geom.Point{
		{X: o, Y: o + 8, ID: 0}, {X: o + 2, Y: o + 8, ID: 1}, // in W0, 2 apart
		{X: o + 4, Y: o + 8, ID: 2}, {X: o + 4, Y: o + 8, ID: 3}, // the answer, 3 away
	}
	qy := Query{Q: q, L: 1, W: 1, N: 2}
	eng, err := engineOver(pts, geom.NewRect(o, o, o+16, o+16), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if w0 := geom.RectAround(q).Buffer(0.5, 0.5); w0.Width() != 2 {
		t.Fatalf("W0 = %v is not 2 wide: nothing to fall back from", w0)
	}
	for _, c := range []struct {
		cell         float64 // the shared cell; +Inf for none
		found, rerun bool
	}{
		{math.Inf(1), true, true},
		{4, true, true},
		{3, true, true},
		{1, false, false}, // the seed, which was not the bound in force alone
	} {
		for _, scheme := range PaperSchemes {
			var got [2]Result
			var sts [2]Stats
			for i, x := range []Exec{{}, {Paper: true}} {
				if !math.IsInf(c.cell, 1) {
					x.Bound = rstar.NewSharedBound()
					x.Bound.Tighten(c.cell)
				}
				if got[i], sts[i], err = eng.NWC(ctx, qy, scheme, MeasureMax, x); err != nil {
					t.Fatal(err)
				}
			}
			at := fmt.Sprintf("%v under a shared bound of %v", scheme, c.cell)
			if !reflect.DeepEqual(got[0], got[1]) || got[0].Found != c.found || c.found && got[0].Dist != 3 {
				t.Fatalf("%s: served %+v, the paper's execution %+v, want found=%v at 3", at, got[0], got[1], c.found)
			}
			// The seeded search takes the two objects 1 away; a rerun takes
			// them again and the two 3 away.
			if want := map[bool]int{false: 2, true: 6}[c.rerun]; sts[0].ObjectsProcessed != want {
				t.Errorf("%s: %d objects processed, want %d (rerun=%v)", at, sts[0].ObjectsProcessed, want, c.rerun)
			}
		}
	}
}
