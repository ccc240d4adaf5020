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
	tr := newTree(t, Options{MaxEntries: fanout})
	if err := tr.BulkLoad(pts); err != nil {
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

// TestBulkLoadGolden pins the trees BulkLoad builds, node for node, to
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
