package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"nwcq/internal/geom"
)

// genPoints produces n points: a blend of uniform background and tight
// clusters, exercising both balanced and skewed tree shapes.
func genPoints(rng *rand.Rand, n int, clustered bool) []geom.Point {
	pts := make([]geom.Point, n)
	var centers []geom.Point
	if clustered {
		for i := 0; i < 8; i++ {
			centers = append(centers, geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
		}
	}
	for i := range pts {
		if clustered && rng.Intn(4) > 0 {
			c := centers[rng.Intn(len(centers))]
			pts[i] = geom.Point{
				X:  c.X + rng.NormFloat64()*20,
				Y:  c.Y + rng.NormFloat64()*20,
				ID: uint64(i),
			}
		} else {
			pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
		}
	}
	return pts
}

func newTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tr, err := New(NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func insertAll(t *testing.T, tr *Tree, pts []geom.Point) {
	t.Helper()
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
}

func sortPoints(pts []geom.Point) {
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].ID != pts[b].ID {
			return pts[a].ID < pts[b].ID
		}
		if pts[a].X != pts[b].X {
			return pts[a].X < pts[b].X
		}
		return pts[a].Y < pts[b].Y
	})
}

func samePointSet(t *testing.T, got, want []geom.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	sortPoints(got)
	sortPoints(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

func bruteWindow(pts []geom.Point, r geom.Rect) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if r.ContainsPoint(p) {
			out = append(out, p)
		}
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(NewMemStore(), Options{MaxEntries: 2}); err == nil {
		t.Error("MaxEntries=2 accepted")
	}
	if _, err := New(NewMemStore(), Options{MaxEntries: 10, MinEntries: 6}); err == nil {
		t.Error("MinEntries > MaxEntries/2 accepted")
	}
	tr := newTree(t, Options{})
	if tr.MaxEntries() != DefaultMaxEntries {
		t.Errorf("default MaxEntries = %d, want %d", tr.MaxEntries(), DefaultMaxEntries)
	}
	if tr.opts.MinEntries != DefaultMaxEntries*2/5 {
		t.Errorf("default MinEntries = %d, want %d", tr.opts.MinEntries, DefaultMaxEntries*2/5)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, Options{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	got, err := tr.SearchCollect(geom.NewRect(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("search on empty tree returned %d points", len(got))
	}
	it := tr.NewNNIterator(geom.Point{})
	if _, _, _, ok := it.Next(); ok {
		t.Error("NN on empty tree yielded a point")
	}
	if err := tr.CheckInvariants(false); err != nil {
		t.Error(err)
	}
}

func TestInsertInvariantsAndContents(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		for _, n := range []int{1, 7, 9, 63, 500, 3000} {
			rng := rand.New(rand.NewSource(int64(n)))
			pts := genPoints(rng, n, clustered)
			tr := newTree(t, Options{MaxEntries: 8})
			insertAll(t, tr, pts)
			if tr.Len() != n {
				t.Fatalf("Len = %d, want %d", tr.Len(), n)
			}
			if err := tr.CheckInvariants(false); err != nil {
				t.Fatalf("n=%d clustered=%v: %v", n, clustered, err)
			}
			all, err := tr.All()
			if err != nil {
				t.Fatal(err)
			}
			samePointSet(t, all, pts, "All")
		}
	}
}

func TestWindowQueryMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := genPoints(rng, 2000, seed%2 == 0)
		tr := newTree(t, Options{MaxEntries: 16})
		insertAll(t, tr, pts)
		for i := 0; i < 200; i++ {
			r := geom.NewRect(
				rng.Float64()*1000, rng.Float64()*1000,
				rng.Float64()*1000, rng.Float64()*1000,
			)
			got, err := tr.SearchCollect(r)
			if err != nil {
				t.Fatal(err)
			}
			samePointSet(t, got, bruteWindow(pts, r), "window")
		}
		// Tiny and degenerate windows.
		p := pts[rng.Intn(len(pts))]
		got, err := tr.SearchCollect(geom.RectAround(p))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, g := range got {
			if g == p {
				found = true
			}
		}
		if !found {
			t.Error("degenerate window missed its point")
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := genPoints(rng, 500, false)
	tr := newTree(t, Options{MaxEntries: 8})
	insertAll(t, tr, pts)
	n := 0
	err := tr.Search(geom.NewRect(0, 0, 1000, 1000), func(geom.Point) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("early stop visited %d points, want 10", n)
	}
}

func TestNNIteratorOrderingAndCompleteness(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := genPoints(rng, 1500, seed%2 == 0)
		tr := newTree(t, Options{MaxEntries: 10})
		insertAll(t, tr, pts)
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		it := tr.NewNNIterator(q)
		var got []geom.Point
		last := -1.0
		for {
			p, leaf, d2, ok := it.Next()
			if !ok {
				break
			}
			if d2 < last {
				t.Fatalf("NN order violated: %g after %g", d2, last)
			}
			if d2 != p.Dist2(q) {
				t.Fatalf("reported dist2 %g, actual %g", d2, p.Dist2(q))
			}
			// The reported leaf must actually store the point.
			node, err := tr.Node(leaf)
			if err != nil {
				t.Fatal(err)
			}
			stored := false
			for _, lp := range node.Points {
				if lp == p {
					stored = true
				}
			}
			if !stored {
				t.Fatalf("point %v not in reported leaf %d", p, leaf)
			}
			last = d2
			got = append(got, p)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		samePointSet(t, got, pts, "NN enumeration")
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := genPoints(rng, 800, true)
	tr := newTree(t, Options{MaxEntries: 12})
	insertAll(t, tr, pts)
	for i := 0; i < 50; i++ {
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		got, err := tr.NearestK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]geom.Point, len(pts))
		copy(want, pts)
		sort.Slice(want, func(a, b int) bool {
			return want[a].Dist2(q) < want[b].Dist2(q)
		})
		want = want[:k]
		if len(got) != k {
			t.Fatalf("NearestK returned %d, want %d", len(got), k)
		}
		for j := range got {
			// Ties make exact identity ambiguous; compare distances.
			if got[j].Dist2(q) != want[j].Dist2(q) {
				t.Fatalf("k-NN rank %d: dist %g, want %g", j, got[j].Dist2(q), want[j].Dist2(q))
			}
		}
	}
}

func TestPeekDist2LowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := genPoints(rng, 400, false)
	tr := newTree(t, Options{MaxEntries: 8})
	insertAll(t, tr, pts)
	q := geom.Point{X: 500, Y: 500}
	it := tr.NewNNIterator(q)
	for {
		lb, ok := it.PeekDist2()
		if !ok {
			break
		}
		p, _, d2, ok := it.Next()
		if !ok {
			break
		}
		if d2 < lb {
			t.Fatalf("returned %g below peeked bound %g (point %v)", d2, lb, p)
		}
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := genPoints(rng, 1200, true)
	tr := newTree(t, Options{MaxEntries: 8})
	insertAll(t, tr, pts)

	perm := rng.Perm(len(pts))
	removed := map[int]bool{}
	for i, pi := range perm[:800] {
		ok, err := tr.Delete(pts[pi])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%v) found nothing", pts[pi])
		}
		removed[pi] = true
		if i%100 == 99 {
			if err := tr.CheckInvariants(false); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 400 {
		t.Fatalf("Len = %d, want 400", tr.Len())
	}
	var want []geom.Point
	for i, p := range pts {
		if !removed[i] {
			want = append(want, p)
		}
	}
	all, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	samePointSet(t, all, want, "after deletes")

	// Deleting a missing point reports false.
	ok, err := tr.Delete(geom.Point{X: -1, Y: -1, ID: 999999})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Delete of absent point reported true")
	}
}

func TestDeleteToEmptyAndReuse(t *testing.T) {
	tr := newTree(t, Options{MaxEntries: 4})
	pts := genPoints(rand.New(rand.NewSource(11)), 100, false)
	insertAll(t, tr, pts)
	for _, p := range pts {
		if ok, err := tr.Delete(p); err != nil || !ok {
			t.Fatalf("delete %v: ok=%v err=%v", p, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d after deleting everything", tr.Height())
	}
	// The tree remains usable.
	insertAll(t, tr, pts[:50])
	if err := tr.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	all, _ := tr.All()
	samePointSet(t, all, pts[:50], "reuse after drain")
}

func TestDuplicatePoints(t *testing.T) {
	tr := newTree(t, Options{MaxEntries: 4})
	p := geom.Point{X: 5, Y: 5, ID: 1}
	for i := 0; i < 10; i++ {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := tr.SearchCollect(geom.RectAround(p))
	if len(got) != 10 {
		t.Fatalf("found %d duplicates, want 10", len(got))
	}
	// Delete removes exactly one instance per call.
	if ok, _ := tr.Delete(p); !ok {
		t.Fatal("delete failed")
	}
	got, _ = tr.SearchCollect(geom.RectAround(p))
	if len(got) != 9 {
		t.Fatalf("found %d duplicates after one delete, want 9", len(got))
	}
}

func TestBulkLoad(t *testing.T) {
	for _, n := range []int{1, 10, 100, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := genPoints(rng, n, true)
		tr, err := Build(NewMemStore(), Options{MaxEntries: 16}, pts, true)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		if err := tr.CheckInvariants(true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		all, err := tr.All()
		if err != nil {
			t.Fatal(err)
		}
		samePointSet(t, all, pts, "bulk-loaded contents")
		for i := 0; i < 30; i++ {
			r := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
				rng.Float64()*1000, rng.Float64()*1000)
			got, err := tr.SearchCollect(r)
			if err != nil {
				t.Fatal(err)
			}
			samePointSet(t, got, bruteWindow(pts, r), "bulk-loaded window")
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pts := genPoints(rng, 2000, false)
	tr, err := Build(NewMemStore(), Options{MaxEntries: 16}, pts[:1500], true)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, pts[1500:])
	for _, p := range pts[:200] {
		if ok, err := tr.Delete(p); err != nil || !ok {
			t.Fatalf("delete after bulk load: ok=%v err=%v", ok, err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	all, _ := tr.All()
	samePointSet(t, all, pts[200:], "bulk+mutate contents")
}

func TestVisitCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pts := genPoints(rng, 2000, false)
	tr := newTree(t, Options{MaxEntries: 10})
	insertAll(t, tr, pts)
	tr.ResetVisits()
	if v := tr.Visits(); v != 0 {
		t.Fatalf("visits after reset = %d", v)
	}
	if _, err := tr.SearchCollect(geom.NewRect(0, 0, 50, 50)); err != nil {
		t.Fatal(err)
	}
	small := tr.Visits()
	if small == 0 {
		t.Fatal("window query counted no visits")
	}
	tr.ResetVisits()
	if _, err := tr.SearchCollect(geom.NewRect(0, 0, 1000, 1000)); err != nil {
		t.Fatal(err)
	}
	full := tr.Visits()
	nodes, _ := tr.NumNodes()
	if full != uint64(nodes) {
		t.Errorf("full-space window visited %d nodes of %d", full, nodes)
	}
	if small >= full {
		t.Errorf("small window visits %d >= full scan visits %d", small, full)
	}
}

func TestWalkCountsNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := genPoints(rng, 300, false)
	tr := newTree(t, Options{MaxEntries: 8})
	insertAll(t, tr, pts)
	leaves, internal := 0, 0
	err := tr.Walk(func(n *Node) bool {
		if n.Leaf {
			leaves++
		} else {
			internal++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves == 0 || internal == 0 {
		t.Errorf("walk saw %d leaves, %d internal", leaves, internal)
	}
	total, _ := tr.NumNodes()
	if leaves+internal != total {
		t.Errorf("walk total %d != NumNodes %d", leaves+internal, total)
	}
}
