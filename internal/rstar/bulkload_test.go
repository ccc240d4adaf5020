package rstar

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nwcq/internal/datagen"
	"nwcq/internal/geom"
)

var updateBulkLoad = flag.Bool("update-bulkload", false, "rewrite testdata/bulkload.golden")

// treeHash is a SHA-256 over every node of tr in depth-first order: its
// ID, kind, points, child rectangles and child IDs. Two trees hash equal
// only if they are the same tree node for node, IDs included.
func treeHash(t *testing.T, tr *Tree) string {
	t.Helper()
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	err := tr.Walk(func(n *Node) bool {
		word(uint64(n.ID))
		if n.Leaf {
			word(1)
		} else {
			word(0)
		}
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

func bulkLoaded(t *testing.T, pts []geom.Point, fanout int) *Tree {
	t.Helper()
	tr, err := Build(NewMemStore(), Options{MaxEntries: fanout}, pts, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	return tr
}

// goldenSets are the datasets of the golden test. Their coordinates are
// pairwise distinct, so any STR implementation that orders by x, then y,
// slices into the same slabs and allocates leaves in slab order builds
// the same tree.
func goldenSets() map[string][]geom.Point {
	return map[string][]geom.Point{
		"uniform":   datagen.Uniform(60000, 11),
		"gaussian":  datagen.Gaussian(60000, 5000, 1000, 12),
		"clustered": datagen.Clustered(datagen.ClusterSpec{N: 60000, Clusters: 25, Spread: 120, BackgroundFrac: 0.15, PowerLaw: 0.8}, 13),
	}
}

// TestBulkLoadGolden pins the trees Build packs, node for node, to
// testdata/bulkload.golden. A change to the packing that alters any
// node's ID, points, rectangles or children fails it; -update-bulkload
// rewrites the file, which is only right for a deliberate change of the
// tree.
func TestBulkLoadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six 60k-point trees")
	}
	var lines []string
	for _, name := range []string{"uniform", "gaussian", "clustered"} {
		pts := goldenSets()[name]
		seen := make(map[[2]float64]bool, len(pts))
		for _, p := range pts {
			k := [2]float64{p.X, p.Y}
			if seen[k] {
				t.Fatalf("%s: coordinates (%v, %v) repeat; the golden sets must be distinct", name, p.X, p.Y)
			}
			seen[k] = true
		}
		for _, fanout := range []int{50, 8} {
			tr := bulkLoaded(t, pts, fanout)
			nodes, err := tr.NumNodes()
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s n=%d fanout=%d height=%d nodes=%d %s",
				name, len(pts), fanout, tr.Height(), nodes, treeHash(t, tr)))
		}
	}
	const path = "testdata/bulkload.golden"
	got := strings.Join(lines, "\n") + "\n"
	if *updateBulkLoad {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden file has %d trees, test builds %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("tree differs from the golden one:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}

// latticePoints draws n points on a side × side integer lattice, so that
// many of them coincide; IDs are distinct.
func latticePoints(n, side int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(side)), Y: float64(rng.Intn(side)), ID: uint64(i)}
	}
	return pts
}

// TestBulkLoadOrderInvariant checks that the tree is a function of the
// point set: coincident points, ordered by ID, land in the same leaves
// whatever order the input lists them in.
func TestBulkLoadOrderInvariant(t *testing.T) {
	pts := latticePoints(30000, 300, 5)
	for _, fanout := range []int{50, 8} {
		want := treeHash(t, bulkLoaded(t, pts, fanout))
		rng := rand.New(rand.NewSource(int64(fanout)))
		for shuffle := 0; shuffle < 3; shuffle++ {
			cp := append([]geom.Point(nil), pts...)
			rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
			if got := treeHash(t, bulkLoaded(t, cp, fanout)); got != want {
				t.Fatalf("fanout %d, shuffle %d: tree depends on input order", fanout, shuffle)
			}
		}
	}
}

// TestBulkLoadOneProcessor checks that the concurrent slab sorts build
// the tree a single processor does.
func TestBulkLoadOneProcessor(t *testing.T) {
	pts := append(latticePoints(20000, 200, 6), datagen.Uniform(20000, 7)...)
	for i := range pts {
		pts[i].ID = uint64(i)
	}
	want := treeHash(t, bulkLoaded(t, pts, 16))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := treeHash(t, bulkLoaded(t, pts, 16)); got != want {
		t.Fatal("a one-processor build differs from a parallel one")
	}
}

// TestStrOrderMatchesSort holds the slab selection and the slab sorts
// against a full sort on inputs that stress a quickselect: sorted,
// reversed, all on one x, and all one point.
func TestStrOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inputs := map[string][]geom.Point{
		"lattice": latticePoints(5000, 30, 9),
		"uniform": datagen.Uniform(5000, 10),
	}
	sorted := append([]geom.Point(nil), inputs["uniform"]...)
	slices.SortFunc(sorted, cmpXY)
	inputs["sorted"] = sorted
	inputs["reversed"] = append([]geom.Point(nil), sorted...)
	slices.Reverse(inputs["reversed"])
	oneX := make([]geom.Point, 5000)
	same := make([]geom.Point, 5000)
	for i := range oneX {
		oneX[i] = geom.Point{X: 7, Y: float64(rng.Intn(100)), ID: uint64(i)}
		same[i] = geom.Point{X: 1, Y: 1, ID: 3}
	}
	inputs["one-x"], inputs["one-point"] = oneX, same
	for name, pts := range inputs {
		for _, capacity := range []int{2, 5, 35} {
			got := append([]geom.Point(nil), pts...)
			strOrder(got, capacity)
			want := append([]geom.Point(nil), pts...)
			slices.SortFunc(want, cmpXY)
			nNodes := (len(want) + capacity - 1) / capacity
			slabSize := int(math.Ceil(math.Sqrt(float64(nNodes)))) * capacity
			for s := 0; s < len(want); s += slabSize {
				slices.SortFunc(want[s:min(s+slabSize, len(want))], cmpYX)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, capacity %d: STR order differs from a full sort's", name, capacity)
			}
		}
	}
}

// strReference is the STR order by two full comparator sorts: by
// (X, Y, ID), then each slab by (Y, X, ID).
func strReference(pts []geom.Point, capacity int) []geom.Point {
	want := slices.Clone(pts)
	slices.SortFunc(want, cmpXY)
	nNodes := (len(want) + capacity - 1) / capacity
	slabSize := max(1, int(math.Ceil(math.Sqrt(float64(nNodes))))) * capacity
	for s := 0; s < len(want); s += slabSize {
		slices.SortFunc(want[s:min(s+slabSize, len(want))], cmpYX)
	}
	return want
}

// keyOrderInputs are the inputs that stress the key order: coincident
// points, one x, one y, both zeros with repeated IDs, sorted and
// reversed input, a Gaussian, one far outlier that leaves nearly every
// point in one y bucket, and xs or ys too wide or too narrow for a
// bucket pass to scale.
func keyOrderInputs(n int) map[string][]geom.Point {
	rng := rand.New(rand.NewSource(int64(n)))
	inputs := map[string][]geom.Point{
		"lattice":  latticePoints(n, 7, int64(n)),
		"uniform":  datagen.Uniform(n, int64(n)+1),
		"gaussian": datagen.Gaussian(n, 5000, 800, int64(n)+2),
	}
	sorted := slices.Clone(inputs["uniform"])
	slices.SortFunc(sorted, cmpXY)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	inputs["sorted"], inputs["reversed"] = sorted, reversed
	shapes := map[string]func(i int) geom.Point{
		"one-x": func(int) geom.Point { return geom.Point{X: -7, Y: float64(rng.Intn(50)) - 25} },
		"one-y": func(int) geom.Point { return geom.Point{X: float64(rng.Intn(50)) - 25, Y: 3} },
		"zeros": func(i int) geom.Point {
			z := []float64{math.Copysign(0, -1), 0, -1, 1}
			return geom.Point{X: z[rng.Intn(4)], Y: z[rng.Intn(4)], ID: uint64(rng.Intn(3))}
		},
		"wide": func(int) geom.Point {
			return geom.Point{X: []float64{-math.MaxFloat64, 0, math.MaxFloat64}[rng.Intn(3)], Y: rng.Float64()}
		},
		"subnormal": func(int) geom.Point {
			return geom.Point{X: float64(rng.Intn(5)) * math.SmallestNonzeroFloat64, Y: rng.NormFloat64()}
		},
		"wide-y": func(int) geom.Point {
			return geom.Point{X: rng.Float64(), Y: []float64{-math.MaxFloat64, 0, math.MaxFloat64, rng.NormFloat64()}[rng.Intn(4)]}
		},
		"subnormal-y": func(int) geom.Point {
			return geom.Point{X: float64(rng.Intn(3)), Y: float64(rng.Intn(7)) * math.SmallestNonzeroFloat64}
		},
		"far-outlier": func(i int) geom.Point {
			if i == n/2 {
				return geom.Point{X: rng.Float64(), Y: 1e12}
			}
			return geom.Point{X: rng.Float64(), Y: rng.Float64()}
		},
	}
	for name, at := range shapes {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = at(i)
			if name != "zeros" {
				pts[i].ID = uint64(i)
			}
		}
		inputs[name] = pts
	}
	return inputs
}

// TestSortSlabMatchesSort holds the bucket slab sort against a full
// cmpYX sort, one buffer and one bucket table serving every size: each
// size up to 64, then every 37th to a slab of 2,660 points (76 nodes of
// 35, the slab a 200k-point build sorts).
func TestSortSlabMatchesSort(t *testing.T) {
	const most = 2660
	buf, ends := make([]geom.Point, most), make([]int, most/pointsPerBucket)
	for n := 0; n <= most; n++ {
		if n > 64 && n%37 != 0 && n != most {
			continue
		}
		for name, pts := range keyOrderInputs(n) {
			got, want := slices.Clone(pts), slices.Clone(pts)
			sortSlab(got, buf, ends)
			slices.SortFunc(want, cmpYX)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: slab order differs from a full sort's", name, n)
			}
		}
	}
}

// TestStrOrderFromMatchesSort holds the bucket pass, and strOrder in
// place, against two full sorts for every size from 0 to a few slabs,
// on one processor and on two; the source must come back untouched.
func TestStrOrderFromMatchesSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, capacity := range []int{2, 5, 35} {
			sizes := []int{6000}
			for n := 0; n <= 8*capacity+3; n++ {
				sizes = append(sizes, n)
			}
			for _, n := range sizes {
				for name, pts := range keyOrderInputs(n) {
					src := slices.Clone(pts)
					want := strReference(pts, capacity)
					got := make([]geom.Point, n)
					strOrderFrom(got, src, capacity)
					if !slices.Equal(got, want) {
						t.Fatalf("procs %d, %s, n=%d, capacity %d: strOrderFrom differs from a full sort's", procs, name, n, capacity)
					}
					if !slices.Equal(src, pts) {
						t.Fatalf("procs %d, %s, n=%d, capacity %d: strOrderFrom changed its source", procs, name, n, capacity)
					}
					strOrder(src, capacity)
					if !slices.Equal(src, want) {
						t.Fatalf("procs %d, %s, n=%d, capacity %d: strOrder differs from a full sort's", procs, name, n, capacity)
					}
				}
			}
		}
	}
}
