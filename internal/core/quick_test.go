package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nwcq/internal/geom"
	"nwcq/internal/grid"
	"nwcq/internal/iwp"
	"nwcq/internal/rstar"
)

// quickEngine builds a full engine from quick-generated raw values.
func quickEngine(pts []geom.Point) (*Engine, error) {
	return engineOver(pts, geom.NewRect(0, 0, 1000, 1000), 40)
}

// engineOver builds a full engine whose density grid covers space in
// cells of the given size.
func engineOver(pts []geom.Point, space geom.Rect, cell float64) (*Engine, error) {
	tr, err := rstar.New(rstar.NewMemStore(), rstar.Options{MaxEntries: 4})
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			return nil, err
		}
	}
	den, err := grid.New(space, cell, pts)
	if err != nil {
		return nil, err
	}
	ix, err := iwp.Build(tr)
	if err != nil {
		return nil, err
	}
	return NewEngine(tr, den, ix)
}

func quickPts(raw []struct{ X, Y float64 }) []geom.Point {
	norm := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return math.Mod(math.Abs(v), 1000)
	}
	pts := make([]geom.Point, 0, len(raw))
	for i, r := range raw {
		pts = append(pts, geom.Point{X: norm(r.X), Y: norm(r.Y), ID: uint64(i)})
	}
	// Keep the brute-force oracle tractable.
	if len(pts) > 40 {
		pts = pts[:40]
	}
	return pts
}

// TestQuickNWCOptimality: for arbitrary point sets and query shapes,
// the fully optimised scheme matches the exhaustive oracle under every
// measure.
func TestQuickNWCOptimality(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, qxr, qyr, lr, wr float64, nRaw uint8, mRaw uint8) bool {
		pts := quickPts(raw)
		eng, err := quickEngine(pts)
		if err != nil {
			return false
		}
		norm := func(v, span float64) float64 {
			if math.IsNaN(v) {
				return 1
			}
			return math.Mod(math.Abs(v), span)
		}
		qy := Query{
			Q: geom.Point{X: norm(qxr, 1200) - 100, Y: norm(qyr, 1200) - 100},
			L: norm(lr, 200) + 0.5,
			W: norm(wr, 200) + 0.5,
			N: int(nRaw%5) + 1,
		}
		measure := allMeasures[int(mRaw)%len(allMeasures)]
		want := BruteForceNWC(pts, qy, measure)
		got, _, err := eng.NWC(context.Background(), qy, SchemeNWCStar, measure, Exec{})
		if err != nil {
			return false
		}
		if got.Found != want.Found {
			return false
		}
		if !got.Found {
			return true
		}
		return math.Abs(got.Dist-want.Dist) <= 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickSchemeEquivalence: any pair of schemes agrees on the optimal
// distance for arbitrary inputs.
func TestQuickSchemeEquivalence(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, qxr, qyr, lr, wr float64, nRaw, sRaw uint8) bool {
		pts := quickPts(raw)
		eng, err := quickEngine(pts)
		if err != nil {
			return false
		}
		norm := func(v, span float64) float64 {
			if math.IsNaN(v) {
				return 1
			}
			return math.Mod(math.Abs(v), span)
		}
		qy := Query{
			Q: geom.Point{X: norm(qxr, 1000), Y: norm(qyr, 1000)},
			L: norm(lr, 300) + 0.5,
			W: norm(wr, 300) + 0.5,
			N: int(nRaw%6) + 1,
		}
		scheme := allSchemes[int(sRaw)%len(allSchemes)]
		base, _, err := eng.NWC(context.Background(), qy, SchemeNWC, MeasureMax, Exec{})
		if err != nil {
			return false
		}
		got, _, err := eng.NWC(context.Background(), qy, scheme, MeasureMax, Exec{})
		if err != nil {
			return false
		}
		if got.Found != base.Found {
			return false
		}
		return !got.Found || math.Abs(got.Dist-base.Dist) <= 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickKNWCDefinition: arbitrary kNWC queries return groups that
// satisfy the structural criteria of Definition 3 (n objects per
// window, pairwise overlap within m, ascending order).
func TestQuickKNWCStructure(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, qxr, qyr, lr, wr float64, nRaw, kRaw, mRaw uint8) bool {
		pts := quickPts(raw)
		eng, err := quickEngine(pts)
		if err != nil {
			return false
		}
		norm := func(v, span float64) float64 {
			if math.IsNaN(v) {
				return 1
			}
			return math.Mod(math.Abs(v), span)
		}
		n := int(nRaw%4) + 1
		qy := KNWCQuery{
			Query: Query{
				Q: geom.Point{X: norm(qxr, 1000), Y: norm(qyr, 1000)},
				L: norm(lr, 250) + 0.5,
				W: norm(wr, 250) + 0.5,
				N: n,
			},
			K: int(kRaw%4) + 1,
			M: int(mRaw) % n,
		}
		groups, _, err := eng.KNWC(context.Background(), qy, SchemeNWCStar, MeasureMax, Exec{})
		if err != nil {
			return false
		}
		const eps = 1e-9
		for i, g := range groups {
			if len(g.Objects) != n {
				return false
			}
			if g.Window.Width() > qy.L+eps || g.Window.Height() > qy.W+eps {
				return false
			}
			for _, o := range g.Objects {
				if !g.Window.ContainsPoint(o) {
					return false
				}
			}
			if i > 0 && g.Dist < groups[i-1].Dist-eps {
				return false
			}
			for j := i + 1; j < len(groups); j++ {
				if g.OverlapCount(groups[j]) > qy.M {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentReadQueries: a built engine answers NWC queries from
// many goroutines concurrently (reads only) without races; run under
// -race in CI.
func TestConcurrentReadQueries(t *testing.T) {
	pts := genPoints(rand.New(rand.NewSource(99)), 2000, true)
	eng := buildEngine(t, pts, 10, 25)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := Query{
					Q: geom.Point{X: float64((seed*37 + i*211) % 1000), Y: float64((seed*91 + i*53) % 1000)},
					L: 30, W: 30, N: 4,
				}
				if _, _, err := eng.NWC(context.Background(), q, SchemeNWCPlus, MeasureMax, Exec{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
