package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nwcq/internal/geom"
)

// newDistStats prepares an empty distStats over the given distances.
func newDistStats(all []float64) *distStats {
	slab := make([]distPoint, len(all))
	for i, d := range all {
		slab[i].d = d
	}
	ds := &distStats{}
	ds.reset(slab)
	return ds
}

// referenceWindow mirrors distStats with a plain slice for oracle
// comparison.
type referenceWindow struct {
	dists []float64
}

func (r *referenceWindow) add(d float64) { r.dists = append(r.dists, d) }
func (r *referenceWindow) remove(d float64) {
	for i, v := range r.dists {
		if v == d {
			r.dists = append(r.dists[:i], r.dists[i+1:]...)
			return
		}
	}
	panic("remove of absent value")
}

func (r *referenceWindow) sumSmallest(k int) float64 {
	cp := append([]float64(nil), r.dists...)
	sort.Float64s(cp)
	s := 0.0
	for _, v := range cp[:k] {
		s += v
	}
	return s
}

func TestDistStatsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(200)
		all := make([]float64, n)
		for i := range all {
			v := rng.Float64() * 100
			if rng.Intn(4) == 0 && i > 0 {
				v = all[rng.Intn(i)] // duplicates
			}
			all[i] = v
		}
		fen := newDistStats(all)
		ref := &referenceWindow{}
		present := make([]bool, n)
		ops := 0
		for ops < 2000 {
			ops++
			i := rng.Intn(n)
			if present[i] {
				fen.remove(fen.rankOf(all[i]))
				ref.remove(all[i])
				present[i] = false
			} else {
				fen.add(fen.rankOf(all[i]))
				ref.add(all[i])
				present[i] = true
			}
			if fen.total != len(ref.dists) {
				t.Fatalf("total %d, reference %d", fen.total, len(ref.dists))
			}
			if fen.total == 0 {
				continue
			}
			k := 1 + rng.Intn(fen.total)
			if got, want := fen.sumSmallest(k), ref.sumSmallest(k); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("sumSmallest(%d) = %g, want %g", k, got, want)
			}
		}
	}
}

func TestDistStatsQuickProperty(t *testing.T) {
	prop := func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			vals[i] = math.Mod(math.Abs(v), 1e6)
		}
		fen := newDistStats(vals)
		for _, v := range vals {
			fen.add(fen.rankOf(v))
		}
		k := int(kRaw)%len(vals) + 1
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		want := 0.0
		for _, v := range sorted[:k] {
			want += v
		}
		got := fen.sumSmallest(k)
		return math.Abs(got-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

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
