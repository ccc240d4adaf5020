package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"nwcq/internal/geom"
)

func TestQuickselect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		s := make([]distPoint, n)
		for i := range s {
			d := rng.Float64() * 10
			if rng.Intn(5) == 0 && i > 0 {
				d = s[rng.Intn(i)].d // ties
			}
			s[i] = distPoint{d: d, p: genPoints(rng, 1, false)[0]}
		}
		k := 1 + rng.Intn(n)
		cp := make([]distPoint, n)
		copy(cp, s)
		quickselect(cp, k)
		// Every element in cp[:k] must be ≤ every element in cp[k:].
		maxLeft := cp[0]
		for _, v := range cp[:k] {
			if distLess(maxLeft, v) {
				maxLeft = v
			}
		}
		for _, v := range cp[k:] {
			if distLess(v, maxLeft) {
				t.Fatalf("quickselect violated partition at k=%d", k)
			}
		}
		// Multiset preserved.
		sum := func(vs []distPoint) float64 {
			total := 0.0
			for _, v := range vs {
				total += v.d
			}
			return total
		}
		if math.Abs(sum(cp)-sum(s)) > 1e-9 {
			t.Fatal("quickselect altered the multiset")
		}
	}
}

func TestNClosestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		pts := genPoints(rng, 1+rng.Intn(150), trial%2 == 0)
		q := pts[rng.Intn(len(pts))]
		n := 1 + rng.Intn(len(pts)+3) // may exceed len
		got := nClosest(q, pts, n)
		want := append([]geom.Point(nil), pts...)
		sort.Slice(want, func(a, b int) bool {
			return distLess(distPoint{d: q.Dist(want[a]), p: want[a]},
				distPoint{d: q.Dist(want[b]), p: want[b]})
		})
		wantN := n
		if wantN > len(want) {
			wantN = len(want)
		}
		if len(got) != wantN {
			t.Fatalf("nClosest returned %d, want %d", len(got), wantN)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rank %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// TestSelDistIsGroupDist: the distance the verify stage reads off the
// selected members' carried distances is, bit for bit, the one groupDist —
// the oracles' function — computes from their points, under every measure.
func TestSelDistIsGroupDist(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		pts := genPoints(rng, 1+rng.Intn(60), trial%2 == 0)
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		s := make([]distPoint, len(pts))
		for i, p := range pts {
			s[i] = distPoint{d: q.Dist(p), p: p}
		}
		sel := selectClosest(s, 1+rng.Intn(10))
		win := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
		for _, measure := range allMeasures {
			if got, want := selDist(q, sel, win, measure), groupDist(q, pointsOf(nil, sel), win, measure); got != want {
				t.Fatalf("%v over %v: selDist %v, groupDist %v", measure, sel, got, want)
			}
		}
	}
}
