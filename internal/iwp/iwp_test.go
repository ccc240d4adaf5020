package iwp

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nwcq/internal/datagen"
	"nwcq/internal/geom"
	"nwcq/internal/rstar"
)

func genPoints(rng *rand.Rand, n int, clustered bool) []geom.Point {
	pts := make([]geom.Point, n)
	var centers []geom.Point
	if clustered {
		for i := 0; i < 6; i++ {
			centers = append(centers, geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
		}
	}
	for i := range pts {
		if clustered && rng.Intn(5) > 0 {
			c := centers[rng.Intn(len(centers))]
			pts[i] = geom.Point{X: c.X + rng.NormFloat64()*15, Y: c.Y + rng.NormFloat64()*15, ID: uint64(i)}
		} else {
			pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
		}
	}
	return pts
}

func buildTree(t *testing.T, pts []geom.Point, maxEntries int) *rstar.Tree {
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
	return tr
}

// depthsAndMBRs gathers every node's depth and MBR by direct traversal.
func depthsAndMBRs(t *testing.T, tr *rstar.Tree) (map[rstar.NodeID]int, map[rstar.NodeID]geom.Rect, map[rstar.NodeID][]rstar.NodeID) {
	t.Helper()
	depths := map[rstar.NodeID]int{}
	mbrs := map[rstar.NodeID]geom.Rect{}
	parentsOf := map[rstar.NodeID][]rstar.NodeID{} // leaf -> root..leaf path
	var rec func(id rstar.NodeID, depth int, path []rstar.NodeID)
	rec = func(id rstar.NodeID, depth int, path []rstar.NodeID) {
		node, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		depths[id] = depth
		mbrs[id] = node.MBR()
		path = append(path, id)
		if node.Leaf {
			cp := make([]rstar.NodeID, len(path))
			copy(cp, path)
			parentsOf[id] = cp
			return
		}
		for _, c := range node.Children {
			rec(c, depth+1, path)
		}
	}
	rec(tr.Root(), 0, nil)
	return depths, mbrs, parentsOf
}

func TestBackwardPointerStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// MaxEntries 4 yields a deep tree so the exponential spacing shows.
	pts := genPoints(rng, 3000, false)
	tr := buildTree(t, pts, 4)
	if tr.Height() < 5 {
		t.Fatalf("tree too shallow for the test: height %d", tr.Height())
	}
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	depths, mbrs, paths := depthsAndMBRs(t, tr)

	leaves := 0
	for leaf, path := range paths {
		leaves++
		bps := ix.BackwardPointers(leaf)
		h := len(path) - 1
		// Expected depth sequence: h, h-1, h-2, h-4, ..., 0.
		wantDepths := []int{h}
		for step := 1; h-step > 0; step *= 2 {
			wantDepths = append(wantDepths, h-step)
		}
		if h > 0 {
			wantDepths = append(wantDepths, 0)
		}
		if len(bps) != len(wantDepths) {
			t.Fatalf("leaf %d: %d pointers, want %d", leaf, len(bps), len(wantDepths))
		}
		if bps[0].Node != leaf {
			t.Fatalf("leaf %d: bp1 points to %d", leaf, bps[0].Node)
		}
		if bps[len(bps)-1].Node != tr.Root() {
			t.Fatalf("leaf %d: bp_r points to %d, not root", leaf, bps[len(bps)-1].Node)
		}
		for i, bp := range bps {
			if depths[bp.Node] != wantDepths[i] {
				t.Fatalf("leaf %d: bp%d at depth %d, want %d", leaf, i+1, depths[bp.Node], wantDepths[i])
			}
			if bp.MBR != mbrs[bp.Node] {
				t.Fatalf("leaf %d: bp%d MBR %v, node MBR %v", leaf, i+1, bp.MBR, mbrs[bp.Node])
			}
			// Each target must be an ancestor of (or equal to) the leaf.
			found := false
			for _, a := range path {
				if a == bp.Node {
					found = true
				}
			}
			if !found {
				t.Fatalf("leaf %d: bp%d target %d is not an ancestor", leaf, i+1, bp.Node)
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no leaves seen")
	}
	if ix.NumBackward() == 0 {
		t.Fatal("no backward pointers accounted")
	}
}

func TestBackwardPointerCountFormula(t *testing.T) {
	// r = ⌈log₂ h⌉ + 2 for leaf depth h ≥ 1 (paper Section 3.3.4, via
	// its height-8 example having r = 5); the root-is-leaf degenerate
	// case keeps a single self pointer.
	cases := map[int]int{0: 1, 1: 2, 2: 3, 3: 4, 4: 4, 5: 5, 8: 5, 9: 6}
	for h, wantR := range cases {
		r := 0
		for _, targeted := range targetedDepths(Exponential, h) {
			if targeted {
				r++
			}
		}
		if r != wantR {
			t.Errorf("h=%d: r=%d, want %d", h, r, wantR)
		}
	}
}

func bulkTree(t *testing.T, pts []geom.Point, maxEntries int) *rstar.Tree {
	t.Helper()
	tr, err := rstar.Build(rstar.NewMemStore(), rstar.Options{MaxEntries: maxEntries}, pts, true)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOverlapPointersMatchBruteForce holds every overlap list against
// all same-depth pairs of intersecting MBRs, under every strategy, on an
// inserted tree, on the bulk-loaded trees a server builds, on a lattice
// whose sibling MBRs share edges (Intersects is closed, so touching
// nodes overlap) and on data with every point on one x (zero-width
// MBRs, all starting at the same MinX).
func TestOverlapPointersMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var lattice, oneX []geom.Point
	for x := 0; x < 60; x++ {
		for y := 0; y < 60; y++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y), ID: uint64(len(lattice))})
		}
	}
	for i := 0; i < 3000; i++ {
		oneX = append(oneX, geom.Point{X: 500, Y: float64(rng.Intn(2000)), ID: uint64(i)})
	}
	cases := []struct {
		name     string
		tree     *rstar.Tree
		touching bool // the case must have pairs that only share an edge
	}{
		{"inserted", buildTree(t, genPoints(rng, 4000, true), 6), false}, // clustered data overlaps more
		{"bulk-uniform", bulkTree(t, genPoints(rng, 20000, false), 50), false},
		{"bulk-clustered", bulkTree(t, genPoints(rng, 20000, true), 8), false},
		{"bulk-lattice", bulkTree(t, lattice, 8), true},
		{"bulk-one-x", bulkTree(t, oneX, 8), true},
	}
	for _, c := range cases {
		for _, strategy := range []Strategy{Exponential, Minimal, Full} {
			label := c.name + "/" + strategy.String()
			touching := checkOverlapsBruteForce(t, label, c.tree, strategy)
			if c.touching && touching == 0 {
				t.Errorf("%s: no pair of nodes only shares an edge", label)
			}
		}
	}
}

// checkOverlapsBruteForce compares the overlap lists of an index built
// with strategy against a brute-force pairing of the tree's nodes and
// returns how many of the pairs only touch.
func checkOverlapsBruteForce(t *testing.T, label string, tr *rstar.Tree, strategy Strategy) (touching int) {
	t.Helper()
	ix, err := BuildWithStrategy(tr, strategy)
	if err != nil {
		t.Fatal(err)
	}
	depths, mbrs, paths := depthsAndMBRs(t, tr)

	// Brute force: same-depth nodes with intersecting MBRs.
	byDepth := map[int][]rstar.NodeID{}
	for id, d := range depths {
		byDepth[d] = append(byDepth[d], id)
	}
	targeted := map[rstar.NodeID]bool{}
	for leaf := range paths {
		for _, bp := range ix.BackwardPointers(leaf) {
			if bp.Node != tr.Root() {
				targeted[bp.Node] = true
			}
		}
	}
	if len(targeted) == 0 {
		t.Fatalf("%s: nothing targeted", label)
	}
	total := 0
	for id := range depths {
		var want []rstar.NodeID
		if targeted[id] {
			for _, other := range byDepth[depths[id]] {
				a, b := mbrs[id], mbrs[other]
				if other != id && b.Intersects(a) {
					want = append(want, other)
					if a.MinX == b.MaxX || a.MaxX == b.MinX || a.MinY == b.MaxY || a.MaxY == b.MinY {
						touching++
					}
				}
			}
		}
		var got []rstar.NodeID
		for _, ov := range ix.OverlapPointers(id) {
			got = append(got, ov.Node)
			if ov.MBR != mbrs[ov.Node] {
				t.Fatalf("%s: overlap pointer MBR stale for node %d", label, ov.Node)
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: node %d lists overlapping nodes %v, want %v", label, id, got, want)
		}
		total += len(want)
	}
	if ix.NumOverlap() != total {
		t.Errorf("%s: NumOverlap = %d, want %d", label, ix.NumOverlap(), total)
	}
	if ix.StorageBytes() != (ix.NumBackward()+ix.NumOverlap())*4 {
		t.Errorf("%s: storage accounting formula drifted", label)
	}
	return touching
}

func samePointSet(t *testing.T, got, want []geom.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	a, b := sortedPoints(got), sortedPoints(want)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d differs", label, i)
		}
	}
}

func sortedPoints(pts []geom.Point) []geom.Point {
	out := slices.Clone(pts)
	slices.SortFunc(out, func(a, b geom.Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Y, b.Y); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// TestWindowQueryEquivalence is the core IWP property: for every object
// and search-region-shaped rectangle, the incremental query returns
// exactly what a traditional root-down window query returns, with no
// more node visits.
func TestWindowQueryEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := genPoints(rng, 3000, seed%2 == 0)
		tr := buildTree(t, pts, 8)
		ix, err := Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		it := tr.NewNNIterator(q)
		for n := 0; n < 400; n++ {
			p, leaf, _, ok := it.Next()
			if !ok {
				break
			}
			l := rng.Float64()*60 + 0.5
			w := rng.Float64()*60 + 0.5
			rect := geom.SearchRegion(q, p, l, w)
			tr.ResetVisits()
			want, err := tr.SearchCollect(rect)
			if err != nil {
				t.Fatal(err)
			}
			traditional := tr.Visits()
			tr.ResetVisits()
			got, err := ix.WindowCollect(leaf, rect)
			if err != nil {
				t.Fatal(err)
			}
			incremental := tr.Visits()
			samePointSet(t, got, want, "IWP window")
			if incremental > traditional {
				t.Errorf("IWP visited %d nodes, traditional %d (rect %v)",
					incremental, traditional, rect)
			}
		}
	}
}

func TestWindowQuerySavesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := genPoints(rng, 5000, false)
	tr := buildTree(t, pts, 6)
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 500, Y: 500}
	it := tr.NewNNIterator(q)
	var tradTotal, iwpTotal uint64
	for n := 0; n < 300; n++ {
		p, leaf, _, ok := it.Next()
		if !ok {
			break
		}
		rect := geom.SearchRegion(q, p, 12, 12)
		tr.ResetVisits()
		if _, err := tr.SearchCollect(rect); err != nil {
			t.Fatal(err)
		}
		tradTotal += tr.Visits()
		tr.ResetVisits()
		if _, err := ix.WindowCollect(leaf, rect); err != nil {
			t.Fatal(err)
		}
		iwpTotal += tr.Visits()
	}
	if iwpTotal >= tradTotal {
		t.Errorf("IWP total %d visits not below traditional %d", iwpTotal, tradTotal)
	}
}

func TestWindowQueryOutsideRootMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := genPoints(rng, 500, false)
	tr := buildTree(t, pts, 8)
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, leaf, _, ok := tr.NewNNIterator(geom.Point{}).Next()
	if !ok {
		t.Fatal("no points")
	}
	// A rect sticking far out of the data space: must still be correct.
	rect := geom.NewRect(900, 900, 5000, 5000)
	got, err := ix.WindowCollect(leaf, rect)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.SearchCollect(rect)
	if err != nil {
		t.Fatal(err)
	}
	samePointSet(t, got, want, "out-of-space window")
	// Entirely outside: empty.
	got, err = ix.WindowCollect(leaf, geom.NewRect(2000, 2000, 3000, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("window outside space returned %d points", len(got))
	}
}

func TestWindowQueryEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := genPoints(rng, 1000, true)
	tr := buildTree(t, pts, 8)
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, leaf, _, _ := tr.NewNNIterator(geom.Point{X: 500, Y: 500}).Next()
	n := 0
	err = ix.WindowQuery(tr.Reader(nil, nil), leaf, geom.NewRect(0, 0, 1000, 1000), func(geom.Point) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("early stop after %d points, want 5", n)
	}
}

func TestEmptyRectNoOp(t *testing.T) {
	tr := buildTree(t, genPoints(rand.New(rand.NewSource(10)), 100, false), 8)
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, leaf, _, _ := tr.NewNNIterator(geom.Point{}).Next()
	tr.ResetVisits()
	if err := ix.WindowQuery(tr.Reader(nil, nil), leaf, geom.EmptyRect(), func(geom.Point) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if tr.Visits() != 0 {
		t.Errorf("empty rect visited %d nodes", tr.Visits())
	}
}

func TestStaleLeafRejected(t *testing.T) {
	tr := buildTree(t, genPoints(rand.New(rand.NewSource(11)), 100, false), 8)
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	err = ix.WindowQuery(tr.Reader(nil, nil), rstar.NodeID(9999), geom.NewRect(0, 0, 1, 1), func(geom.Point) bool { return true })
	if err == nil {
		t.Error("unknown leaf accepted")
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := buildTree(t, genPoints(rand.New(rand.NewSource(12)), 5, false), 8)
	if tr.Height() != 1 {
		t.Skip("tree grew beyond one level")
	}
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	bps := ix.BackwardPointers(tr.Root())
	if len(bps) != 1 || bps[0].Node != tr.Root() {
		t.Fatalf("single-leaf pointers %v", bps)
	}
	got, err := ix.WindowCollect(tr.Root(), geom.NewRect(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("collected %d of 5 points", len(got))
	}
}

// BenchmarkIWPBuild measures the IWP build over a bulk-loaded tree of
// uniform points at the default fan-out. The 800k ÷ 200k time ratio is
// the sweep's scaling: about 4–6 for O(N log N + K), 16 for a scan over
// every pair.
func BenchmarkIWPBuild(b *testing.B) {
	for _, n := range []int{200000, 800000} {
		tr, err := rstar.Build(rstar.NewMemStore(), rstar.Options{MaxEntries: 50}, datagen.Uniform(n, 101), true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
