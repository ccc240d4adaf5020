package nwcq

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"nwcq/internal/rstar"
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

// TestBuildCheckNamesFirstBadPoint: the point check runs in chunks side
// by side, and its error is still the first bad point's, whichever
// chunk finds one first.
func TestBuildCheckNamesFirstBadPoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pts := testPoints(4*checkChunk, 64)
	late, early := 3*checkChunk+5, checkChunk+7
	pts[late].X = math.NaN()
	want := fmt.Sprintf("nwcq: point %d: nwcq: invalid point: coordinates (NaN, %g) must be finite", late, pts[late].Y)
	if _, err := Build(pts, WithBulkLoad()); fmt.Sprint(err) != want {
		t.Fatalf("Build: %v, want %q", err, want)
	}
	pts[early].Y = 2e6
	want = fmt.Sprintf("nwcq: point %d at (%g, 2e+06) outside the configured space", early, pts[early].X)
	path := filepath.Join(t.TempDir(), "index.nwcq")
	if _, err := BuildPaged(pts, path, WithBulkLoad(), WithSpace(0, 0, 1000, 1000)); fmt.Sprint(err) != want {
		t.Fatalf("BuildPaged: %v, want %q", err, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a BuildPaged that refused a point left a page file: %v", err)
	}
}

// TestBuildGridErrorFirst holds the error of a grid that needs more
// than its cell limit to the text it had while the grid was counted
// before the tree was frozen: the grid now counts beside the IWP build,
// and its error must still be the one a build returns.
func TestBuildGridErrorFirst(t *testing.T) {
	const configured = "grid: space [0,1e+06]x[0,1e+06] at cell size 25 needs 1.600080001e+09 cells, more than 268435456"
	if _, err := Build([]Point{{X: 1, Y: 2}}, WithSpace(0, 0, 1e6, 1e6)); fmt.Sprint(err) != configured {
		t.Errorf("Build over a configured space: %v, want %q", err, configured)
	}
	const bounded = "grid: space [0,1e+07]x[0,1e+06] at cell size 25 needs 1.6000440001e+10 cells, more than 268435456"
	if _, err := Build([]Point{{X: 0, Y: 0}, {X: 1e7, Y: 3}, {X: 5, Y: 1e6}}, WithBulkLoad()); fmt.Sprint(err) != bounded {
		t.Errorf("Build over the points' bounds: %v, want %q", err, bounded)
	}
	path := filepath.Join(t.TempDir(), "index.nwcq")
	if _, err := BuildPaged([]Point{{X: 1, Y: 2}}, path, WithSpace(0, 0, 1e6, 1e6)); fmt.Sprint(err) != configured {
		t.Errorf("BuildPaged over a configured space: %v, want %q", err, configured)
	}
}

// TestBuildSameAtEveryProcs checks that a bulk-loaded Build on one
// processor and on two gives the same tree node for node, the same
// storage overhead and the same answers, and a BuildPaged the same
// page file: the x scatter and the slab sorts are split over the
// processors, the grid is counted beside the IWP build and full runs
// are written on the page store's writer goroutine, and none may
// change what is built.
func TestBuildSameAtEveryProcs(t *testing.T) {
	pts := testPoints(40000, 47) // enough for the scatter and the check to split
	for i := range pts[:5000] {  // coincident points, to be ordered by ID
		pts[i].X, pts[i].Y = math.Floor(pts[i].X/50)*50, math.Floor(pts[i].Y/50)*50
	}
	type built struct {
		hash, pages string
		gridB, iwpB int
		nwc         []Result
		knwc        []KResult
	}
	build := func() built {
		ix, err := Build(pts, WithBulkLoad())
		if err != nil {
			t.Fatal(err)
		}
		var b built
		b.hash = indexTreeHash(t, ix.cur.Load().tree)
		b.gridB, b.iwpB = ix.StorageOverheadBytes()
		path := filepath.Join(t.TempDir(), "index.nwcq")
		px, err := BuildPaged(pts, path, WithBulkLoad())
		if err != nil {
			t.Fatal(err)
		}
		if err := px.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.pages = fmt.Sprintf("%x", sha256.Sum256(raw))
		rng := rand.New(rand.NewSource(48))
		for range 40 {
			q := Query{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Length: 10 + rng.Float64()*60, Width: 10 + rng.Float64()*60, N: 2 + rng.Intn(6)}
			res, err := ix.NWC(q)
			if err != nil {
				t.Fatal(err)
			}
			b.nwc = append(b.nwc, res)
			kres, err := ix.KNWC(KQuery{Query: q, K: 3, M: 1})
			if err != nil {
				t.Fatal(err)
			}
			b.knwc = append(b.knwc, kres)
		}
		return b
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := build()
	runtime.GOMAXPROCS(2)
	got := build()
	if got.hash != want.hash {
		t.Errorf("tree hash %s on two processors, %s on one", got.hash, want.hash)
	}
	if got.pages != want.pages {
		t.Errorf("page file SHA-256 %s on two processors, %s on one", got.pages, want.pages)
	}
	if got.gridB != want.gridB || got.iwpB != want.iwpB {
		t.Errorf("StorageOverheadBytes (%d, %d) on two processors, (%d, %d) on one", got.gridB, got.iwpB, want.gridB, want.iwpB)
	}
	if !reflect.DeepEqual(got.nwc, want.nwc) || !reflect.DeepEqual(got.knwc, want.knwc) {
		t.Error("answers on two processors differ from those on one")
	}
}

// indexTreeHash is a SHA-256 over every node of tr in depth-first
// order: its ID, kind, points, child rectangles and child IDs.
func indexTreeHash(t *testing.T, tr *rstar.Tree) string {
	t.Helper()
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	f := func(v float64) { word(math.Float64bits(v)) }
	err := tr.Walk(func(n *rstar.Node) bool {
		word(uint64(n.ID))
		word(uint64(len(n.Points)))
		for _, p := range n.Points {
			f(p.X)
			f(p.Y)
			word(p.ID)
		}
		word(uint64(len(n.Children)))
		for i, c := range n.Children {
			r := n.Rects[i]
			f(r.MinX)
			f(r.MinY)
			f(r.MaxX)
			f(r.MaxY)
			word(uint64(c))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
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
