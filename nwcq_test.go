package nwcq

import (
	"math"
	"math/rand"
	"testing"
)

func testPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
	}
	return pts
}

func TestBuildAndBasicQuery(t *testing.T) {
	pts := testPoints(2000, 1)
	for _, opts := range [][]BuildOption{
		nil,
		{WithBulkLoad()},
		{func(o *buildOptions) { o.maxEntries, o.gridCellSize = 16, 50 }},
		{WithSpace(0, 0, 1000, 1000)},
	} {
		idx, err := Build(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != len(pts) {
			t.Fatalf("Len = %d", idx.Len())
		}
		res, err := idx.NWC(Query{X: 500, Y: 500, Length: 100, Width: 100, N: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatal("no result on dense uniform data")
		}
		if len(res.Objects) != 5 {
			t.Fatalf("%d objects", len(res.Objects))
		}
		if res.Stats.NodeVisits == 0 {
			t.Error("no I/O recorded")
		}
		// Objects fit the window, distances ascend.
		for i, o := range res.Objects {
			if o.X < res.Window.MinX || o.X > res.Window.MaxX ||
				o.Y < res.Window.MinY || o.Y > res.Window.MaxY {
				t.Fatalf("object %v outside window %+v", o, res.Window)
			}
			if i > 0 {
				di := math.Hypot(res.Objects[i].X-500, res.Objects[i].Y-500)
				dp := math.Hypot(res.Objects[i-1].X-500, res.Objects[i-1].Y-500)
				if di < dp-1e-9 {
					t.Fatal("objects not in ascending distance order")
				}
			}
		}
		if res.Window.MaxX-res.Window.MinX > 100+1e-9 || res.Window.MaxY-res.Window.MinY > 100+1e-9 {
			t.Fatalf("window %+v exceeds 100x100", res.Window)
		}
	}
}

func TestSchemesAgreeThroughPublicAPI(t *testing.T) {
	pts := testPoints(3000, 2)
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	var baseline float64
	for i, s := range []Scheme{SchemeNWC, SchemeSRR, SchemeDIP, SchemeDEP, SchemeIWP, SchemeNWCPlus, SchemeNWCStar} {
		res, err := idx.NWC(Query{X: 300, Y: 700, Length: 60, Width: 60, N: 6, Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("scheme %v found nothing", s)
		}
		if i == 0 {
			baseline = res.Dist
		} else if math.Abs(res.Dist-baseline) > 1e-9 {
			t.Fatalf("scheme %v dist %g, baseline %g", s, res.Dist, baseline)
		}
	}
}

func TestMeasuresThroughPublicAPI(t *testing.T) {
	pts := testPoints(1000, 3)
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	dists := map[Measure]float64{}
	for _, m := range []Measure{MaxDistance, MinDistance, AvgDistance, WindowDistance} {
		res, err := idx.NWC(Query{X: 500, Y: 500, Length: 120, Width: 120, N: 4, Measure: m})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("measure %v found nothing", m)
		}
		dists[m] = res.Dist
	}
	if !(dists[MinDistance] <= dists[AvgDistance] && dists[AvgDistance] <= dists[MaxDistance]) {
		t.Errorf("measure ordering violated: %v", dists)
	}
	if dists[WindowDistance] > dists[MinDistance] {
		t.Errorf("window distance %g above min distance %g", dists[WindowDistance], dists[MinDistance])
	}
	if _, err := idx.NWC(Query{X: 0, Y: 0, Length: 1, Width: 1, N: 1, Measure: Measure(9)}); err == nil {
		t.Error("bad measure accepted")
	}
}

func TestKNWCThroughPublicAPI(t *testing.T) {
	pts := testPoints(3000, 4)
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.KNWC(KQuery{
		Query: Query{X: 500, Y: 500, Length: 80, Width: 80, N: 4},
		K:     3, M: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	groups, st := res.Groups, res.Stats
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	if st.NodeVisits == 0 {
		t.Error("no I/O recorded")
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Dist < groups[i-1].Dist {
			t.Error("groups out of order")
		}
	}
	// Pairwise overlap within m.
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			shared := 0
			for _, a := range groups[i].Objects {
				for _, b := range groups[j].Objects {
					if a == b {
						shared++
					}
				}
			}
			if shared > 1 {
				t.Errorf("groups %d,%d share %d objects", i, j, shared)
			}
		}
	}
}

func TestWindowAndNearest(t *testing.T) {
	pts := testPoints(500, 5)
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := idx.Window(100, 100, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if p.X >= 100 && p.X <= 300 && p.Y >= 100 && p.Y <= 300 {
			want++
		}
	}
	if len(in) != want {
		t.Errorf("window returned %d, want %d", len(in), want)
	}
	nn, err := idx.Nearest(500, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 10 {
		t.Fatalf("nearest returned %d", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if math.Hypot(nn[i].X-500, nn[i].Y-500) < math.Hypot(nn[i-1].X-500, nn[i-1].Y-500) {
			t.Fatal("nearest not sorted")
		}
	}
	if _, err := idx.Nearest(0, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := idx.Window(math.NaN(), 0, 1, 1); err == nil {
		t.Error("NaN window accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]Point{{X: math.NaN(), Y: 0}}); err == nil {
		t.Error("NaN point accepted")
	}
	if _, err := Build([]Point{{X: math.Inf(1), Y: 0}}); err == nil {
		t.Error("Inf point accepted")
	}
	if _, err := Build([]Point{{X: 5, Y: 5}}, WithSpace(0, 0, 1, 1)); err == nil {
		t.Error("point outside configured space accepted")
	}
	// Empty and single-point datasets build fine.
	idx, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.NWC(Query{X: 0, Y: 0, Length: 1, Width: 1, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found a group in an empty index")
	}
	one, err := Build([]Point{{X: 3, Y: 4, ID: 9}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = one.NWC(Query{X: 0, Y: 0, Length: 2, Width: 2, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Objects[0].ID != 9 {
		t.Errorf("single-point result %+v", res)
	}
	if res.Dist != 5 {
		t.Errorf("dist %g, want 5", res.Dist)
	}
}

func TestIOStatsAccumulate(t *testing.T) {
	pts := testPoints(2000, 6)
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	if idx.IOStats() != 0 {
		t.Error("fresh index has nonzero I/O")
	}
	res, err := idx.NWC(Query{X: 500, Y: 500, Length: 50, Width: 50, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if idx.IOStats() != res.Stats.NodeVisits {
		t.Errorf("cumulative %d != per-query %d", idx.IOStats(), res.Stats.NodeVisits)
	}
	idx.ResetIOStats()
	if idx.IOStats() != 0 {
		t.Error("reset did not zero the counter")
	}
	g, i := idx.StorageOverheadBytes()
	if g <= 0 || i <= 0 {
		t.Errorf("storage overheads %d/%d", g, i)
	}
	if idx.TreeHeight() < 1 {
		t.Error("tree height")
	}
}

func TestSchemeStringPublic(t *testing.T) {
	if SchemeNWCStar.String() != "NWC*" || SchemeNWC.String() != "NWC" {
		t.Error("scheme names drifted from the paper")
	}
}
