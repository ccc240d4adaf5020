package costmodel

import (
	"math/rand"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
)

// Cross-validation of the per-operation estimators against a real
// R*-tree on uniform data: the closed forms should land within a small
// constant factor of measured node accesses — the accuracy class the
// Section 4 model needs to be useful.

func buildUniformTree(t *testing.T, n int, fanOut int) *rstar.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: uint64(i)}
	}
	tr, err := rstar.Build(rstar.NewMemStore(), rstar.Options{MaxEntries: fanOut}, pts, true)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWindowQueryCostAgainstMeasured(t *testing.T) {
	const n = 50000
	m := Model{Lambda: n / 1e8, SpaceWidth: 10000, FanOut: 50, FillFactor: 0.7}
	tr := buildUniformTree(t, n, 50)
	rng := rand.New(rand.NewSource(8))
	for _, side := range []float64{50, 200, 800} {
		predicted := m.WindowQueryCost(side, side)
		tr.ResetVisits()
		const trials = 50
		for i := 0; i < trials; i++ {
			x := rng.Float64() * (10000 - side)
			y := rng.Float64() * (10000 - side)
			if _, err := tr.SearchCollect(geom.NewRect(x, y, x+side, y+side)); err != nil {
				t.Fatal(err)
			}
		}
		measured := float64(tr.Visits()) / trials
		ratio := predicted / measured
		t.Logf("window %g: predicted %.1f, measured %.1f (ratio %.2f)", side, predicted, measured, ratio)
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("window %g: predicted %.1f vs measured %.1f outside 4x band",
				side, predicted, measured)
		}
	}
}

func TestKNNCostAgainstMeasured(t *testing.T) {
	const n = 50000
	m := Model{Lambda: n / 1e8, SpaceWidth: 10000, FanOut: 50, FillFactor: 0.7}
	tr := buildUniformTree(t, n, 50)
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 16, 256} {
		predicted := m.KNNCost(float64(k))
		tr.ResetVisits()
		const trials = 50
		for i := 0; i < trials; i++ {
			q := geom.Point{X: 1000 + rng.Float64()*8000, Y: 1000 + rng.Float64()*8000}
			if _, err := tr.NearestK(q, k); err != nil {
				t.Fatal(err)
			}
		}
		measured := float64(tr.Visits()) / trials
		ratio := predicted / measured
		t.Logf("k=%d: predicted %.1f, measured %.1f (ratio %.2f)", k, predicted, measured, ratio)
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("k=%d: predicted %.1f vs measured %.1f outside 5x band", k, predicted, measured)
		}
	}
}

func TestFullScanAgainstMeasured(t *testing.T) {
	const n = 50000
	m := Model{Lambda: n / 1e8, SpaceWidth: 10000, FanOut: 50, FillFactor: 0.7}
	tr := buildUniformTree(t, n, 50)
	nodes, err := tr.NumNodes()
	if err != nil {
		t.Fatal(err)
	}
	predicted := m.FullScanCost()
	ratio := predicted / float64(nodes)
	t.Logf("full scan: predicted %.0f, actual nodes %d (ratio %.2f)", predicted, nodes, ratio)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("full-scan estimate %.0f vs %d nodes outside 2x band", predicted, nodes)
	}
}
