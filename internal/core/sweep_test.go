package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"nwcq/internal/geom"
)

// A sweep script is one byte that picks limits and then a stop script
// (decodeStop): a query and objects on a 16 × 16 lattice, where group
// distances repeat, windows tie, and a distance's square is an ulp off the
// integer it came from.

// sweepRun is what checkSweepScript saw, per measure.
type sweepRun struct {
	groups  map[Measure][]Group // the whole candidate list
	limits  map[Measure]int     // limits tried
	atLimit map[Measure]int     // most groups found exactly at a limit
	// lostByUlp counts groups at a limit above zero whose window fails the
	// verify stage's distance gate under the next float above that limit.
	lostByUlp map[Measure]int
}

// checkSweepScript holds GroupsWithin to the oracle on one script: under
// every measure, at +Inf, just below the first group, at zero and exactly at
// group distances (all of them up to eight, else eight picked by the first
// byte), it returns CandidateGroups' list cut at the limit — same distances,
// bit for bit, same objects in the same order, same windows, same order of
// groups — every window l × w around its objects, and the same again with
// the points shuffled.
func checkSweepScript(t *testing.T, data []byte) (run sweepRun) {
	t.Helper()
	if len(data) < 1 {
		return run
	}
	qy, pts, _ := decodeStop(data[1:])
	if qy.N == 0 {
		return run
	}
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	run = sweepRun{map[Measure][]Group{}, map[Measure]int{}, map[Measure]int{}, map[Measure]int{}}
	for _, measure := range allMeasures {
		want := CandidateGroups(pts, qy, measure)
		run.groups[measure] = want
		limits := []float64{math.Inf(1), 0}
		var dists []float64
		for i, g := range want {
			if i == 0 {
				limits = append(limits, math.Nextafter(g.Dist, math.Inf(-1)))
			}
			if i == 0 || g.Dist != want[i-1].Dist {
				dists = append(dists, g.Dist)
			}
		}
		for i, stride := 0, max(1, len(dists)/8); i < len(dists) && i < 8*stride; i += stride {
			limits = append(limits, dists[(i+int(data[0]))%len(dists)])
		}
		run.limits[measure] = len(limits)
		for _, limit := range limits {
			got, cut := GroupsWithin(pts, qy, measure, limit), within(want, limit)
			if len(got) != cut {
				t.Fatalf("%v within %v: %d groups, the oracle has %d (pts=%v qy=%+v)", measure, limit, len(got), cut, pts, qy)
			}
			at := 0
			for i, g := range got {
				if w := want[i]; !reflect.DeepEqual(g, w) {
					t.Fatalf("%v within %v: group %d is %+v, the oracle's %+v (pts=%v qy=%+v)", measure, limit, i, g, w, pts, qy)
				}
				if g.Window.MaxX-g.Window.MinX != qy.L || g.Window.MaxY-g.Window.MinY != qy.W {
					t.Fatalf("%v within %v: group %d has window %v for l=%v w=%v", measure, limit, i, g.Window, qy.L, qy.W)
				}
				for _, o := range g.Objects {
					if !g.Window.ContainsPoint(o) {
						t.Fatalf("%v within %v: group %d: %v lies outside its window %v", measure, limit, i, o, g.Window)
					}
				}
				if g.Dist == limit && limit > 0 {
					at++
					if nb := math.Nextafter(limit, math.Inf(1)); g.Window.MinDist2(qy.Q) >= nb*nb {
						run.lostByUlp[measure]++
					}
				}
			}
			run.atLimit[measure] = max(run.atLimit[measure], at)
			shuffled := append([]geom.Point{}, pts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if again := GroupsWithin(shuffled, qy, measure, limit); !reflect.DeepEqual(again, got) {
				t.Fatalf("%v within %v: %+v from pts=%v, %+v from %v", measure, limit, got, pts, again, shuffled)
			}
		}
	}
	return run
}

// within is how many groups of an ascending list lie within limit.
func within(groups []Group, limit float64) int {
	n := 0
	for n < len(groups) && groups[n].Dist <= limit {
		n++
	}
	return n
}

func sweepScript(pick byte, stop []byte) []byte { return append([]byte{pick}, stop...) }

// sweepScripts are the situations the sweep must get right, by name; each
// is also a file of FuzzGroupsWithin's seed corpus.
var sweepScripts = map[string][]byte{
	// Six windows whose corner nearest q is (±3, ±5) or (±5, ±3) away, each
	// around one pair of objects in that corner and the opposite one, so that
	// no other window holds the pair: six sets √34 away under MeasureWindow
	// and under MeasureMin — where the float above math.Hypot(3, 5) squares
	// to no more than 34, the window's MinDist2. A nearer and a farther pair
	// put the tie in the middle of the list.
	"tie-at-the-limit": sweepScript(0, stopScript(8, 8, 2, 2, 2,
		[2]byte{11, 13}, [2]byte{13, 15}, [2]byte{5, 13}, [2]byte{3, 15}, [2]byte{13, 11}, [2]byte{15, 13},
		[2]byte{5, 3}, [2]byte{3, 1}, [2]byte{11, 3}, [2]byte{13, 1}, [2]byte{3, 5}, [2]byte{1, 3},
		[2]byte{9, 9}, [2]byte{10, 10}, [2]byte{16, 16}, [2]byte{15, 16})),
	// (12,8) is the farthest member of the window it shares with (10,9) and
	// of the one it shares with (10,7), and likewise (4,8) on the other side:
	// two pairs of sets 4 away under MeasureMax, in key order.
	"equal-distance-sets": sweepScript(1, stopScript(8, 8, 2, 1, 2,
		[2]byte{12, 8}, [2]byte{10, 9}, [2]byte{10, 7}, [2]byte{4, 8}, [2]byte{6, 9}, [2]byte{6, 7}, [2]byte{8, 14})),
	// Rows of partners sharing a y, some sharing a site: a window is
	// evaluated at the last of them, with all of them inside.
	"duplicate-y-partners": sweepScript(2, stopScript(7.5, 7.5, 3, 2, 3,
		[2]byte{10, 9}, [2]byte{9, 9}, [2]byte{8, 9}, [2]byte{8, 9}, [2]byte{10, 8}, [2]byte{9, 8},
		[2]byte{5, 6}, [2]byte{6, 6}, [2]byte{7, 6}, [2]byte{7, 6}, [2]byte{5, 5})),
	// Five objects, three to the fullest window, n = 4.
	"fewer-than-n": sweepScript(3, stopScript(8, 8, 3, 3, 4,
		[2]byte{8, 8}, [2]byte{9, 9}, [2]byte{10, 10}, [2]byte{2, 2}, [2]byte{14, 3})),
	// Two objects, each an anchor of a window holding both: (9,10) on the
	// left edge of [9,11] × [8,10], (10,9) on the right edge of [8,10] ×
	// [8,10]. One set at one distance under every measure (q lies in both
	// windows), whose window is neither: it is the objects' own, centred on
	// q as far as they allow.
	"one-set-two-anchors": sweepScript(5, stopScript(9.5, 8, 2, 2, 2, [2]byte{9, 10}, [2]byte{10, 9})),
	// Pairs in every corner of the lattice, far beyond any bound a query
	// near the middle would run under: +Inf returns them all.
	"limit-infinite": sweepScript(4, stopScript(8.5, 8, 2, 2, 2,
		[2]byte{0, 0}, [2]byte{1, 1}, [2]byte{16, 0}, [2]byte{15, 1}, [2]byte{0, 16}, [2]byte{1, 15}, [2]byte{16, 16}, [2]byte{15, 15},
		[2]byte{8, 8}, [2]byte{9, 9}, [2]byte{8, 0}, [2]byte{9, 1}, [2]byte{0, 8}, [2]byte{1, 9})),
}

// TestGroupsWithinTable runs the named scripts, checks that each is what
// its name says, and that each is in the fuzz corpus as written here.
func TestGroupsWithinTable(t *testing.T) {
	for name, script := range sweepScripts {
		run := checkSweepScript(t, script)
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzGroupsWithin", name))
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", script); err != nil || string(file) != want {
			t.Errorf("%s: corpus file holds %q (%v), want %q", name, file, err, want)
		}
		all := run.groups[MeasureMax]
		switch name {
		case "tie-at-the-limit":
			if run.atLimit[MeasureWindow] != 6 || run.lostByUlp[MeasureMin] != 6 {
				t.Errorf("%s: %d sets at one limit under MeasureWindow, %d at theirs under MeasureMin that the next float up gates, want 6 and 6",
					name, run.atLimit[MeasureWindow], run.lostByUlp[MeasureMin])
			}
		case "equal-distance-sets":
			shared := 0
			for i := 1; i < len(all); i++ {
				if n := len(all[i].Objects); all[i].Dist == all[i-1].Dist && all[i].Objects[n-1] == all[i-1].Objects[n-1] {
					shared++
				}
			}
			if shared != 2 {
				t.Errorf("%s: %d neighbours in %+v are equally far and share their farthest member, want 2", name, shared, all)
			}
		case "duplicate-y-partners":
			twins := 0
			for _, g := range all {
				if a, b := g.Objects[0], g.Objects[1]; a.X == b.X && a.Y == b.Y {
					twins++
				}
			}
			if twins < 2 {
				t.Errorf("%s: %d groups of %+v start with two objects of one site, want both sites' twins", name, twins, all)
			}
		case "fewer-than-n":
			for m, g := range run.groups {
				if len(g) != 0 || run.limits[m] != 2 {
					t.Errorf("%s: %v has %d groups and %d limits tried, want none and the two that need no group", name, m, len(g), run.limits[m])
				}
			}
		case "one-set-two-anchors":
			qy, pts, _ := decodeStop(script[1:])
			want := geom.Rect{MinX: 8.5, MinY: 8, MaxX: 10.5, MaxY: 10}
			for _, m := range allMeasures {
				got := GroupsWithin(pts, qy, m, math.Inf(1))
				if len(got) != 1 || got[0].Window != want {
					t.Errorf("%s: %v keeps %+v, want one group in its objects' window %v", name, m, got, want)
				}
			}
		case "limit-infinite":
			if len(all) != 7 || all[6].Dist < 10 {
				t.Errorf("%s: %d groups, the last %+v: want 7, the last in a corner", name, len(all), all[len(all)-1])
			}
		}
	}
}

// TestGroupsWithinRandom is the table's check on point sets off the
// lattice, where no two distances tie: a limit at a group's distance is then
// at exactly one group's.
func TestGroupsWithinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 60; round++ {
		pts := make([]geom.Point, 5+rng.Intn(40))
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40, ID: uint64(i)}
		}
		qy := Query{Q: geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}, L: 2 + rng.Float64()*10, W: 2 + rng.Float64()*10, N: 1 + rng.Intn(4)}
		for _, measure := range allMeasures {
			want := CandidateGroups(pts, qy, measure)
			limits := []float64{math.Inf(1)}
			if len(want) > 0 {
				limits = append(limits, want[rng.Intn(len(want))].Dist, want[len(want)/2].Dist*1.01)
			}
			for _, limit := range limits {
				got, cut := GroupsWithin(pts, qy, measure, limit), within(want, limit)
				if len(got) != cut {
					t.Fatalf("round %d, %v within %v: %d groups, the oracle has %d", round, measure, limit, len(got), cut)
				}
				for i, g := range got {
					if !reflect.DeepEqual(g, want[i]) {
						t.Fatalf("round %d, %v within %v: group %d is %+v, the oracle's %+v", round, measure, limit, i, g, want[i])
					}
				}
			}
		}
	}
}

// FuzzGroupsWithin drives checkSweepScript with byte-derived scripts; the
// seed corpus (testdata/fuzz/FuzzGroupsWithin) is the table above.
func FuzzGroupsWithin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkSweepScript(t, data) })
}

// TestCompareGroupsIsTheListsOrder: a candidate list, shuffled, sorts back
// to itself — equal distances by their members, as GroupsWithin left them.
func TestCompareGroupsIsTheListsOrder(t *testing.T) {
	qy, pts, _ := decodeStop(sweepScripts["tie-at-the-limit"][1:])
	want := GroupsWithin(pts, qy, MeasureWindow, math.Inf(1))
	got := slices.Clone(want)
	rand.New(rand.NewSource(5)).Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	slices.SortFunc(got, func(a, b Group) int { return CompareGroups(qy.Q, a, b) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted to %+v, the list is %+v", got, want)
	}
}
