package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/grid"
	"nwcq/internal/iwp"
	"nwcq/internal/rstar"
)

var allMeasures = []Measure{MeasureMax, MeasureMin, MeasureAvg, MeasureWindow}

// genPoints produces points in [0,1000]² with optional clustering and a
// sprinkle of exact duplicates and shared coordinates, which exercise
// the boundary and tie handling.
func genPoints(rng *rand.Rand, n int, clustered bool) []geom.Point {
	pts := make([]geom.Point, 0, n)
	var centers []geom.Point
	if clustered {
		for i := 0; i < 4; i++ {
			centers = append(centers, geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
		}
	}
	for i := 0; i < n; i++ {
		var p geom.Point
		switch {
		case len(pts) > 0 && rng.Intn(20) == 0:
			// Duplicate coordinates (fresh ID).
			p = pts[rng.Intn(len(pts))]
		case len(pts) > 0 && rng.Intn(10) == 0:
			// Shared y coordinate: stresses the sliding-window dedup.
			p = geom.Point{X: rng.Float64() * 1000, Y: pts[rng.Intn(len(pts))].Y}
		case clustered && rng.Intn(4) > 0:
			c := centers[rng.Intn(len(centers))]
			p = geom.Point{X: c.X + rng.NormFloat64()*25, Y: c.Y + rng.NormFloat64()*25}
		default:
			p = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		p.X = clamp(p.X, 0, 1000)
		p.Y = clamp(p.Y, 0, 1000)
		p.ID = uint64(i)
		pts = append(pts, p)
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// buildEngine assembles a full engine (tree + density grid + IWP index)
// over pts.
func buildEngine(t *testing.T, pts []geom.Point, maxEntries int, cellSize float64) *Engine {
	t.Helper()
	tr, err := rstar.New(rstar.NewMemStore(), rstar.Options{MaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	space := geom.NewRect(0, 0, 1000, 1000)
	den, err := grid.New(space, cellSize, pts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := iwp.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.ResetVisits()
	eng, err := NewEngine(tr, den, ix)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// checkResultValid verifies a Found result is self-consistent: n objects
// all inside the reported window of the right size, distance matching a
// recomputation, objects drawn from the dataset.
func checkResultValid(t *testing.T, pts []geom.Point, qy Query, measure Measure, r Result) {
	t.Helper()
	if len(r.Objects) != qy.N {
		t.Fatalf("result has %d objects, want %d", len(r.Objects), qy.N)
	}
	const eps = 1e-9
	if r.Window.Width() > qy.L+eps || r.Window.Height() > qy.W+eps {
		t.Fatalf("window %v exceeds %g x %g", r.Window, qy.L, qy.W)
	}
	inData := make(map[geom.Point]int)
	for _, p := range pts {
		inData[p]++
	}
	for _, o := range r.Objects {
		if !r.Window.ContainsPoint(o) {
			t.Fatalf("object %v outside window %v", o, r.Window)
		}
		if inData[o] == 0 {
			t.Fatalf("object %v not in dataset (or used twice)", o)
		}
		inData[o]--
	}
	if d := groupDist(qy.Q, r.Objects, r.Window, measure); math.Abs(d-r.Dist) > 1e-9 {
		t.Fatalf("reported dist %g, recomputed %g", r.Dist, d)
	}
}

// TestNWCMatchesBruteForceAllSchemes is the central correctness test:
// on randomised datasets every scheme must return a result with exactly
// the optimal distance found by exhaustive enumeration, for all four
// measures.
func TestNWCMatchesBruteForceAllSchemes(t *testing.T) {
	configs := []struct {
		n         int
		clustered bool
		seed      int64
	}{
		{0, false, 1}, {1, false, 2}, {3, false, 3}, {8, true, 4},
		{20, false, 5}, {20, true, 6}, {45, true, 7}, {45, false, 8},
		{80, true, 9}, {80, false, 10},
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(cfg.seed))
		pts := genPoints(rng, cfg.n, cfg.clustered)
		eng := buildEngine(t, pts, 4, 50)
		for trial := 0; trial < 6; trial++ {
			qy := Query{
				Q: geom.Point{X: rng.Float64()*1200 - 100, Y: rng.Float64()*1200 - 100},
				L: rng.Float64()*150 + 1,
				W: rng.Float64()*150 + 1,
				N: 1 + rng.Intn(6),
			}
			for _, measure := range allMeasures {
				want := BruteForceNWC(pts, qy, measure)
				for _, scheme := range PaperSchemes {
					got, _, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					if got.Found != want.Found {
						t.Fatalf("n=%d seed=%d scheme=%v measure=%v qy=%+v: found=%v, brute=%v",
							cfg.n, cfg.seed, scheme, measure, qy, got.Found, want.Found)
					}
					if !got.Found {
						continue
					}
					if math.Abs(got.Dist-want.Dist) > 1e-9 {
						t.Fatalf("n=%d seed=%d scheme=%v measure=%v qy=%+v: dist=%.12g, brute=%.12g",
							cfg.n, cfg.seed, scheme, measure, qy, got.Dist, want.Dist)
					}
					checkResultValid(t, pts, qy, measure, got)
				}
			}
		}
	}
}

// TestSchemesAgreeOnLargerData cross-checks all schemes against plain
// NWC on datasets too large for the brute-force oracle, as the engine
// serves them and as the paper executes them. "Optimisations must not add
// I/O" is a statement about Algorithm 1, whose plain scheme visits the
// whole tree; a serving execution stops at the bound under every scheme
// (DESIGN.md §19), so it is held to the answers only.
func TestSchemesAgreeOnLargerData(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		pts := genPoints(rng, 3000, clustered)
		eng := buildEngine(t, pts, 10, 25)
		for trial := 0; trial < 8; trial++ {
			qy := Query{
				Q: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				L: rng.Float64()*40 + 2,
				W: rng.Float64()*40 + 2,
				N: 1 + rng.Intn(10),
			}
			measure := allMeasures[trial%len(allMeasures)]
			for _, x := range []Exec{{}, {Paper: true}} {
				base, baseStats, err := eng.NWC(context.Background(), qy, SchemeNWC, measure, x)
				if err != nil {
					t.Fatal(err)
				}
				for _, scheme := range PaperSchemes[1:] {
					got, st, err := eng.NWC(context.Background(), qy, scheme, measure, x)
					if err != nil {
						t.Fatal(err)
					}
					if got.Found != base.Found {
						t.Fatalf("scheme %v found=%v, NWC found=%v (qy=%+v)", scheme, got.Found, base.Found, qy)
					}
					if got.Found && math.Abs(got.Dist-base.Dist) > 1e-9 {
						t.Fatalf("scheme %v dist=%.12g, NWC dist=%.12g (qy=%+v, measure=%v)",
							scheme, got.Dist, base.Dist, qy, measure)
					}
					if got.Found {
						checkResultValid(t, pts, qy, measure, got)
					}
					if x.Paper && st.NodeVisits > baseStats.NodeVisits {
						t.Errorf("scheme %v visited %d nodes, plain NWC %d (optimisations must not add I/O)",
							scheme, st.NodeVisits, baseStats.NodeVisits)
					}
				}
			}
		}
	}
}

func TestOptimisationsReduceIO(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := genPoints(rng, 5000, true)
	eng := buildEngine(t, pts, 16, 25)
	qy := Query{Q: geom.Point{X: 500, Y: 500}, L: 20, W: 20, N: 5}
	visits := map[string]uint64{}
	for _, scheme := range PaperSchemes {
		_, st, err := eng.NWC(context.Background(), qy, scheme, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		visits[scheme.String()] = st.NodeVisits
	}
	if visits["NWC+"] > visits["SRR"] || visits["NWC+"] > visits["DIP"] {
		t.Errorf("NWC+ (%d) should not exceed SRR (%d) or DIP (%d)",
			visits["NWC+"], visits["SRR"], visits["DIP"])
	}
	if visits["NWC*"] > visits["NWC+"] {
		t.Errorf("NWC* (%d) should not exceed NWC+ (%d)", visits["NWC*"], visits["NWC+"])
	}
	if visits["NWC*"] >= visits["NWC"] {
		t.Errorf("NWC* (%d) should beat plain NWC (%d) on clustered data", visits["NWC*"], visits["NWC"])
	}
}

func TestPlainNWCVisitsWholeTree(t *testing.T) {
	// Section 5.3: plain NWC accesses every object regardless of n. That is
	// Algorithm 1 as published, Exec{Paper: true}; the serving execution of
	// the same scheme stops at the bound with the same answer.
	rng := rand.New(rand.NewSource(5))
	pts := genPoints(rng, 2000, false)
	eng := buildEngine(t, pts, 10, 25)
	qy := Query{Q: geom.Point{X: 500, Y: 500}, L: 15, W: 15, N: 4}
	res, st, err := eng.NWC(context.Background(), qy, SchemeNWC, MeasureMax, Exec{Paper: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsProcessed != len(pts) {
		t.Errorf("plain NWC processed %d of %d objects", st.ObjectsProcessed, len(pts))
	}
	if st.WindowQueries != len(pts) {
		t.Errorf("plain NWC issued %d window queries, want %d", st.WindowQueries, len(pts))
	}
	if st.ObjectsSkipped != 0 || st.NodesPruned != 0 {
		t.Errorf("plain NWC pruned: %+v", st)
	}
	served, stServed, err := eng.NWC(context.Background(), qy, SchemeNWC, MeasureMax, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, res) {
		t.Errorf("plain NWC served %+v, the paper's execution %+v", served, res)
	}
	if stServed.ObjectsProcessed >= len(pts)/10 || stServed.ObjectsSkipped != 0 || stServed.NodesPruned != 0 {
		t.Errorf("plain NWC served: %+v, want under a tenth of %d objects and nothing pruned", stServed, len(pts))
	}
}

func TestNWCN1IsNearestNeighborLike(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := genPoints(rng, 300, false)
	eng := buildEngine(t, pts, 8, 50)
	q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	qy := Query{Q: q, L: 10, W: 10, N: 1}
	got, _, err := eng.NWC(context.Background(), qy, SchemeNWCStar, MeasureMax, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found {
		t.Fatal("n=1 query found nothing")
	}
	bestNN := math.Inf(1)
	for _, p := range pts {
		if d := q.Dist(p); d < bestNN {
			bestNN = d
		}
	}
	if math.Abs(got.Dist-bestNN) > 1e-9 {
		t.Errorf("n=1 dist %g, nearest neighbour %g", got.Dist, bestNN)
	}
}

func TestNoQualifiedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := genPoints(rng, 50, false)
	eng := buildEngine(t, pts, 8, 50)
	// n larger than the dataset: impossible.
	qy := Query{Q: geom.Point{X: 500, Y: 500}, L: 10, W: 10, N: len(pts) + 1}
	for _, scheme := range PaperSchemes {
		got, _, err := eng.NWC(context.Background(), qy, scheme, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Found {
			t.Errorf("scheme %v found a window for impossible n", scheme)
		}
	}
	// Tiny window on sparse data can also fail.
	qy = Query{Q: geom.Point{X: 500, Y: 500}, L: 0.001, W: 0.001, N: 3}
	got, _, err := eng.NWC(context.Background(), qy, SchemeNWCStar, MeasureMax, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Found {
		// Only possible if duplicates coincide; verify.
		checkResultValid(t, pts, qy, MeasureMax, got)
	}
}

func TestEmptyDataset(t *testing.T) {
	eng := buildEngine(t, nil, 8, 50)
	got, st, err := eng.NWC(context.Background(), Query{Q: geom.Point{X: 1, Y: 1}, L: 5, W: 5, N: 1}, SchemeNWCStar, MeasureMax, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Found {
		t.Error("found a group in an empty dataset")
	}
	if st.ObjectsProcessed != 0 {
		t.Errorf("processed %d objects in empty dataset", st.ObjectsProcessed)
	}
}

func TestValidation(t *testing.T) {
	eng := buildEngine(t, genPoints(rand.New(rand.NewSource(8)), 10, false), 8, 50)
	bad := []Query{
		{Q: geom.Point{}, L: 0, W: 5, N: 1},
		{Q: geom.Point{}, L: 5, W: -1, N: 1},
		{Q: geom.Point{}, L: 5, W: 5, N: 0},
		{Q: geom.Point{X: math.NaN()}, L: 5, W: 5, N: 1},
	}
	for _, qy := range bad {
		if _, _, err := eng.NWC(context.Background(), qy, SchemeNWC, MeasureMax, Exec{}); err == nil {
			t.Errorf("query %+v accepted", qy)
		}
	}
	ok := Query{Q: geom.Point{X: 1, Y: 1}, L: 5, W: 5, N: 1}
	if _, _, err := eng.NWC(context.Background(), ok, SchemeNWC, Measure(99), Exec{}); err == nil {
		t.Error("invalid measure accepted")
	}
	// Engines without substrate reject schemes that need it.
	bare, err := NewEngine(eng.Tree(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.NWC(context.Background(), ok, SchemeDEP, MeasureMax, Exec{}); err == nil {
		t.Error("DEP without grid accepted")
	}
	if _, _, err := bare.NWC(context.Background(), ok, SchemeIWP, MeasureMax, Exec{}); err == nil {
		t.Error("IWP without index accepted")
	}
	if _, err := NewEngine(nil, nil, nil); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestQueryFarOutsideSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := genPoints(rng, 60, true)
	eng := buildEngine(t, pts, 4, 50)
	qy := Query{Q: geom.Point{X: -5000, Y: 8000}, L: 60, W: 60, N: 3}
	want := BruteForceNWC(pts, qy, MeasureMax)
	for _, scheme := range PaperSchemes {
		got, _, err := eng.NWC(context.Background(), qy, scheme, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found {
			t.Fatalf("scheme %v: found=%v want %v", scheme, got.Found, want.Found)
		}
		if got.Found && math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("scheme %v: dist %g, want %g", scheme, got.Dist, want.Dist)
		}
	}
}

func TestDuplicateHeavyDataset(t *testing.T) {
	// Many identical coordinates and shared rows/columns: the stress
	// case for closed-boundary and equal-y handling.
	var pts []geom.Point
	id := uint64(0)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			for d := 0; d < 2; d++ { // two objects per grid vertex
				pts = append(pts, geom.Point{X: float64(i * 10), Y: float64(j * 10), ID: id})
				id++
			}
		}
	}
	eng := buildEngine(t, pts, 4, 5)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		qy := Query{
			Q: geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			L: float64(rng.Intn(3)*10) + 10, // window edges align with the lattice
			W: float64(rng.Intn(3)*10) + 10,
			N: 1 + rng.Intn(8),
		}
		for _, measure := range allMeasures {
			want := BruteForceNWC(pts, qy, measure)
			for _, scheme := range PaperSchemes {
				got, _, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Found != want.Found || (got.Found && math.Abs(got.Dist-want.Dist) > 1e-9) {
					t.Fatalf("scheme %v measure %v qy %+v: got (%v, %g), want (%v, %g)",
						scheme, measure, qy, got.Found, got.Dist, want.Found, want.Dist)
				}
			}
		}
	}
}

func TestMeasureString(t *testing.T) {
	cases := map[Measure]string{
		MeasureMax: "max", MeasureMin: "min", MeasureAvg: "avg", MeasureWindow: "window",
		Measure(9): "Measure(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Measure(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestSchemeString(t *testing.T) {
	cases := map[string]Scheme{
		"NWC":  SchemeNWC,
		"SRR":  SchemeSRR,
		"DIP":  SchemeDIP,
		"DEP":  SchemeDEP,
		"IWP":  SchemeIWP,
		"NWC+": SchemeNWCPlus,
		"NWC*": SchemeNWCStar,
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("scheme %+v String() = %q, want %q", s, got, want)
		}
	}
	if got := NewScheme(true, false, true, false).String(); got != "SRR+DEP" {
		t.Errorf("ad-hoc scheme String() = %q", got)
	}
}

// TestSchemeVocabulary pins the one table of scheme and measure names:
// the 16 schemes are 16 distinct values in the recorder's 16 slots, with
// the flags the fuzz corpora index them by; the parsers invert String on
// the names the server accepts and refuse the rest.
func TestSchemeVocabulary(t *testing.T) {
	if Scheme(0) != SchemeNWCStar || Scheme(0).String() != "NWC*" {
		t.Errorf("the zero Scheme is %v, want NWC*", Scheme(0))
	}
	seen := map[Scheme]bool{}
	for b, s := range sixteenSchemes() {
		if s > SchemeNWC || seen[s] {
			t.Errorf("flags %04b: scheme %d repeats or leaves the 16 slots", b, s)
		}
		seen[s] = true
		if got := [4]bool{s.SRR(), s.DIP(), s.DEP(), s.IWP()}; got != [4]bool{b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0} {
			t.Errorf("flags %04b: NewScheme gives SRR, DIP, DEP, IWP = %v", b, got)
		}
		name := s.String()
		parsed, err := ParseScheme(name)
		if slices.Contains(PaperSchemes, s) {
			for _, n := range []string{name, strings.ToLower(name), strings.ToUpper(name[:1]) + strings.ToLower(name[1:])} {
				if got, err := ParseScheme(n); err != nil || got != s {
					t.Errorf("ParseScheme(%q) = %v, %v; want %v", n, got, err, s)
				}
			}
		} else {
			var on []string
			for i, f := range []string{"SRR", "DIP", "DEP", "IWP"} {
				if b&(1<<i) != 0 {
					on = append(on, f)
				}
			}
			if name != strings.Join(on, "+") || err == nil {
				t.Errorf("flags %04b: name %q, ParseScheme = %v, %v; want %q refused", b, name, parsed, err, strings.Join(on, "+"))
			}
		}
	}
	if len(PaperSchemes) != 7 || PaperSchemes[0] != SchemeNWC || PaperSchemes[6] != SchemeNWCStar {
		t.Errorf("PaperSchemes = %v, want Table 3's seven from NWC to NWC*", PaperSchemes)
	}
	for _, bad := range []string{"", "nope", " SRR", "NWC**", "SRR+DIP"} {
		if _, err := ParseScheme(bad); err == nil || err.Error() != fmt.Sprintf("unknown scheme %q", bad) {
			t.Errorf("ParseScheme(%q) error = %v", bad, err)
		}
	}
	for m := MeasureMax; m <= MeasureWindow; m++ {
		for _, n := range []string{m.String(), strings.ToUpper(m.String())} {
			if got, err := ParseMeasure(n); err != nil || got != m {
				t.Errorf("ParseMeasure(%q) = %v, %v; want %v", n, got, err, m)
			}
		}
	}
	if _, err := ParseMeasure("nope"); err == nil || err.Error() != `unknown measure "nope"` {
		t.Errorf(`ParseMeasure("nope") error = %v`, err)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := genPoints(rng, 1000, true)
	eng := buildEngine(t, pts, 8, 25)
	qy := Query{Q: geom.Point{X: 500, Y: 500}, L: 25, W: 25, N: 4}
	_, st, err := eng.NWC(context.Background(), qy, SchemeNWCStar, MeasureMax, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeVisits == 0 {
		t.Error("no node visits counted")
	}
	if st.ObjectsProcessed != st.ObjectsSkipped+st.WindowQueries {
		t.Errorf("objects processed %d != skipped %d + window queries %d",
			st.ObjectsProcessed, st.ObjectsSkipped, st.WindowQueries)
	}
	if st.QualifiedWindows > st.CandidateWindows {
		t.Errorf("qualified %d > candidates %d", st.QualifiedWindows, st.CandidateWindows)
	}
}
