package shard

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
)

const distEps = 1e-9

// space is the test data space; with 4 shards the grid splits 2×2 so
// the internal boundaries sit at x=50 and y=50.
var space = nwcq.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

var allMeasures = []nwcq.Measure{
	nwcq.MaxDistance, nwcq.MinDistance, nwcq.AvgDistance, nwcq.WindowDistance,
}

// allSchemes enumerates all 16 optimisation combinations.
func allSchemes() []nwcq.Scheme {
	var out []nwcq.Scheme
	for b := 0; b < 16; b++ {
		out = append(out, nwcq.NewScheme(b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0))
	}
	return out
}

// straddlePoints generates a dataset deliberately clustered around the
// 2×2 shard boundaries (x=50 and y=50) so that optimal windows straddle
// shards, plus uniform background points.
func straddlePoints(rng *rand.Rand, n int) []nwcq.Point {
	pts := make([]nwcq.Point, 0, n)
	id := uint64(1)
	for len(pts) < n {
		var x, y float64
		switch len(pts) % 3 {
		case 0: // hug the vertical boundary
			x = 50 + rng.Float64()*8 - 4
			y = rng.Float64() * 100
		case 1: // hug the horizontal boundary
			x = rng.Float64() * 100
			y = 50 + rng.Float64()*8 - 4
		default: // background
			x = rng.Float64() * 100
			y = rng.Float64() * 100
		}
		pts = append(pts, nwcq.Point{X: x, Y: y, ID: id})
		id++
	}
	return pts
}

// buildBoth builds a single in-memory index and a Sharded router over
// the same points.
func buildBoth(t *testing.T, pts []nwcq.Point, shards int) (*nwcq.Index, *Sharded) {
	t.Helper()
	single, err := nwcq.Build(pts, nwcq.WithSpace(space.MinX, space.MinY, space.MaxX, space.MaxY))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(pts, Options{Shards: shards, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return single, sh
}

func nwcAgree(t *testing.T, label string, got, want nwcq.Result) {
	t.Helper()
	if got.Found != want.Found {
		t.Fatalf("%s: Found=%v, want %v", label, got.Found, want.Found)
	}
	if got.Found && math.Abs(got.Dist-want.Dist) > distEps {
		t.Fatalf("%s: Dist=%g, want %g", label, got.Dist, want.Dist)
	}
	if got.Found && len(got.Objects) != len(want.Objects) {
		t.Fatalf("%s: %d objects, want %d", label, len(got.Objects), len(want.Objects))
	}
}

func knwcAgree(t *testing.T, label string, got nwcq.KResult, want []core.Group) {
	t.Helper()
	if len(got.Groups) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want))
	}
	for i := range want {
		if math.Abs(got.Groups[i].Dist-want[i].Dist) > distEps {
			t.Fatalf("%s: group %d Dist=%g, want %g", label, i, got.Groups[i].Dist, want[i].Dist)
		}
	}
}

// TestShardedMatchesOracleAllSchemes is the acceptance test: on a
// boundary-straddling dataset, the sharded NWC and kNWC answers must
// equal the single-index answers and the brute-force oracle for every
// one of the 16 scheme combinations and all four measures.
func TestShardedMatchesOracleAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := straddlePoints(rng, 90)
	single, sh := buildBoth(t, pts, 4)

	queries := []struct {
		x, y, l, w float64
		n          int
	}{
		{50, 50, 6, 6, 4},   // centred on the 4-corner
		{48, 20, 5, 4, 3},   // near the vertical boundary
		{20, 51, 4, 5, 3},   // near the horizontal boundary
		{10, 10, 8, 8, 5},   // interior of shard 0
		{90, 90, 12, 12, 6}, // interior of the far shard
	}
	for _, m := range allMeasures {
		for qi, qq := range queries {
			oracle := core.BruteForceNWC(pts,
				core.Query{Q: geom.Point{X: qq.x, Y: qq.y}, L: qq.l, W: qq.w, N: qq.n}, m)
			kOracle := core.BruteForceKNWC(pts, core.KNWCQuery{
				Query: core.Query{Q: geom.Point{X: qq.x, Y: qq.y}, L: qq.l, W: qq.w, N: qq.n},
				K:     3, M: 1,
			}, m)
			for _, sc := range allSchemes() {
				q := nwcq.Query{X: qq.x, Y: qq.y, Length: qq.l, Width: qq.w, N: qq.n, Scheme: sc, Measure: m}
				label := sc.String() + "/" + m.String()

				sres, err := single.NWC(q)
				if err != nil {
					t.Fatalf("q%d %s single: %v", qi, label, err)
				}
				rres, err := sh.NWC(q)
				if err != nil {
					t.Fatalf("q%d %s sharded: %v", qi, label, err)
				}
				nwcAgree(t, label, rres, sres)
				if rres.Found != oracle.Found ||
					(rres.Found && math.Abs(rres.Dist-oracle.Group.Dist) > distEps) {
					t.Fatalf("q%d %s: sharded dist %v/%g, oracle %v/%g",
						qi, label, rres.Found, rres.Dist, oracle.Found, oracle.Group.Dist)
				}

				kq := nwcq.KQuery{Query: q, K: 3, M: 1}
				kres, err := sh.KNWC(kq)
				if err != nil {
					t.Fatalf("q%d %s sharded kNWC: %v", qi, label, err)
				}
				knwcAgree(t, "k/"+label, kres, kOracle)
			}
		}
	}
}

// TestCrossShardOnlyGroup exercises the no-local-answer path: every
// shard individually holds fewer than n points, so only a group mixing
// points from several shards can exist.
func TestCrossShardOnlyGroup(t *testing.T) {
	// Two points per shard, all hugging the centre so a single window
	// covers points from all four shards.
	pts := []nwcq.Point{
		{X: 49, Y: 49, ID: 1}, {X: 48, Y: 48, ID: 2}, // shard (0,0)
		{X: 51, Y: 49, ID: 3}, {X: 52, Y: 48, ID: 4}, // shard (1,0)
		{X: 49, Y: 51, ID: 5}, {X: 48, Y: 52, ID: 6}, // shard (0,1)
		{X: 51, Y: 51, ID: 7}, {X: 52, Y: 52, ID: 8}, // shard (1,1)
	}
	single, sh := buildBoth(t, pts, 4)
	for _, m := range allMeasures {
		q := nwcq.Query{X: 50, Y: 50, Length: 10, Width: 10, N: 5, Measure: m}
		want, err := single.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Found {
			t.Fatalf("%s: oracle found no group", m)
		}
		nwcAgree(t, m.String(), got, want)

		kq := nwcq.KQuery{Query: q, K: 2, M: 2}
		kwant, err := single.KNWC(kq)
		if err != nil {
			t.Fatal(err)
		}
		kgot, err := sh.KNWC(kq)
		if err != nil {
			t.Fatal(err)
		}
		if len(kgot.Groups) != len(kwant.Groups) {
			t.Fatalf("%s: kNWC %d groups, want %d", m, len(kgot.Groups), len(kwant.Groups))
		}
		for i := range kwant.Groups {
			if math.Abs(kgot.Groups[i].Dist-kwant.Groups[i].Dist) > distEps {
				t.Fatalf("%s: kNWC group %d dist %g, want %g", m, i, kgot.Groups[i].Dist, kwant.Groups[i].Dist)
			}
		}
	}
}

// TestMINDISTPruningSkipsShards proves the router's MINDIST bound
// actually prunes: on a dataset clustered in one corner, a query in
// that corner must answer without visiting every shard.
func TestMINDISTPruningSkipsShards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []nwcq.Point
	for i := 0; i < 60; i++ {
		// Dense cluster in shard (0,0)'s corner...
		pts = append(pts, nwcq.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10, ID: uint64(i + 1)})
	}
	// ...and a token point in the far shard so it is non-empty.
	pts = append(pts, nwcq.Point{X: 95, Y: 95, ID: 1000})

	single, sh := buildBoth(t, pts, 4)
	// One worker: the home shard's answer is in hand before any sibling
	// is considered. With more, a sibling claimed before that answer
	// lands is queried, not pruned, and the count depends on scheduling.
	sh.SetParallelism(1)
	q := nwcq.Query{X: 5, Y: 5, Length: 4, Width: 4, N: 4}
	want, err := single.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	nwcAgree(t, "clustered", got, want)
	st := sh.RouterStats()
	if st.ShardsPruned == 0 {
		t.Fatalf("expected MINDIST pruning to skip at least one shard; stats %+v", st)
	}
	if st.ShardQueries+st.ShardsPruned < 4 {
		t.Fatalf("pruned+queried=%d, want >= shards", st.ShardQueries+st.ShardsPruned)
	}
}

// TestShardedWindowNearest checks the fan-out forms of the secondary
// queries against the single index.
func TestShardedWindowNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := straddlePoints(rng, 80)
	single, sh := buildBoth(t, pts, 4)

	wantW, err := single.Window(40, 40, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := sh.Window(40, 40, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotW) != len(wantW) {
		t.Fatalf("Window: %d points, want %d", len(gotW), len(wantW))
	}
	seen := map[uint64]bool{}
	for _, p := range wantW {
		seen[p.ID] = true
	}
	for _, p := range gotW {
		if !seen[p.ID] {
			t.Fatalf("Window: unexpected point %d", p.ID)
		}
	}

	wantN, err := single.Nearest(50, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotN, err := sh.Nearest(50, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotN) != len(wantN) {
		t.Fatalf("Nearest: %d points, want %d", len(gotN), len(wantN))
	}
	for i := range wantN {
		dw := math.Hypot(wantN[i].X-50, wantN[i].Y-50)
		dg := math.Hypot(gotN[i].X-50, gotN[i].Y-50)
		if math.Abs(dw-dg) > distEps {
			t.Fatalf("Nearest rank %d: dist %g, want %g", i, dg, dw)
		}
	}

	if sh.Len() != single.Len() {
		t.Fatalf("Len=%d, want %d", sh.Len(), single.Len())
	}
}

// TestShardedBatch checks the batch forms agree with sequential routed
// calls.
func TestShardedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := straddlePoints(rng, 60)
	_, sh := buildBoth(t, pts, 4)

	var qs []nwcq.Query
	var kqs []nwcq.KQuery
	for i := 0; i < 12; i++ {
		q := nwcq.Query{
			X: rng.Float64() * 100, Y: rng.Float64() * 100,
			Length: 5 + rng.Float64()*5, Width: 5 + rng.Float64()*5, N: 3,
		}
		qs = append(qs, q)
		kqs = append(kqs, nwcq.KQuery{Query: q, K: 2, M: 1})
	}
	bres, err := sh.NWCBatch(qs, nwcq.BatchOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := sh.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		nwcAgree(t, "batch", bres[i], want)
	}
	kbres, err := sh.KNWCBatch(kqs, nwcq.BatchOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, kq := range kqs {
		want, err := sh.KNWC(kq)
		if err != nil {
			t.Fatal(err)
		}
		if len(kbres[i].Groups) != len(want.Groups) {
			t.Fatalf("kbatch %d: %d groups, want %d", i, len(kbres[i].Groups), len(want.Groups))
		}
	}
}

// TestOpenShardedBoundsMatchFold: a reopen grows each shard's bounds
// from its tree's extent, and they must equal, bit for bit, the fold of
// ExtendPoint over the shard's points from its region that a reopen
// once computed by reading every point back. Outliers beyond every edge
// are inserted, the farthest of them deleted again, so the bounds the
// directory was closed with are wider than the reopened ones.
func TestOpenShardedBoundsMatchFold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := straddlePoints(rng, 400)
	dir := filepath.Join(t.TempDir(), "cluster")
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	kept := []nwcq.Point{
		{X: -7.25, Y: 40, ID: 9001}, {X: 130.5, Y: 3, ID: 9002}, {X: 60, Y: -0.125, ID: 9003},
		{X: 20, Y: 101.5, ID: 9004}, {X: -3, Y: -4, ID: 9005}, {X: 1e3, Y: 1e3, ID: 9006},
	}
	gone := []nwcq.Point{
		{X: -500, Y: 10, ID: 9101}, {X: 2e4, Y: 90, ID: 9102}, {X: 70, Y: -1e5, ID: 9103},
		{X: -800.5, Y: 3e3, ID: 9104}, {X: 5e4, Y: -6e4, ID: 9105},
	}
	if err := sh.InsertBatch(append(slices.Clone(kept), gone...)); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.DeleteBatch(append(slices.Clone(gone), pts[:40]...)); err != nil {
		t.Fatal(err)
	}
	closed := slices.Clone(sh.shardBounds())
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	bits := func(r geom.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
	}
	for i, got := range re.shardBounds() {
		all, err := re.pageds[i].Window(-math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, math.MaxFloat64)
		if err != nil {
			t.Fatal(err)
		}
		want := re.regions[i]
		if slices.ContainsFunc(all, func(p nwcq.Point) bool { return !want.ContainsPoint(p) }) {
			for _, p := range all {
				want = want.ExtendPoint(p)
			}
		}
		if bits(got) != bits(want) {
			t.Errorf("shard %d: reopened bounds %v, the fold of its %d points gives %v", i, got, len(all), want)
		}
		if got == re.regions[i] {
			t.Errorf("shard %d: no outlier outside its region %v", i, got)
		}
		if got == closed[i] {
			t.Errorf("shard %d: bounds %v as wide as before the deletes", i, got)
		}
	}
}

// TestShardedValidation checks routed queries reject invalid input the
// same way the single index does.
func TestShardedValidation(t *testing.T) {
	_, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(3)), 20), 2)
	if _, err := sh.NWC(nwcq.Query{X: 1, Y: 1, Length: -1, Width: 2, N: 2}); err == nil {
		t.Fatal("negative length accepted")
	}
	if _, err := sh.KNWC(nwcq.KQuery{Query: nwcq.Query{X: 1, Y: 1, Length: 2, Width: 2, N: 2}, K: 0, M: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := sh.Window(math.NaN(), 0, 1, 1); err == nil {
		t.Fatal("NaN window accepted")
	}
}

// TestSplitGrid checks the partitioner's grid factorisation.
func TestSplitGrid(t *testing.T) {
	cases := []struct{ n, gx, gy int }{
		{1, 1, 1}, {2, 1, 2}, {3, 1, 3}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {9, 3, 3}, {12, 3, 4},
	}
	for _, c := range cases {
		gx, gy := splitGrid(c.n)
		if gx != c.gx || gy != c.gy {
			t.Errorf("splitGrid(%d) = %d×%d, want %d×%d", c.n, gx, gy, c.gx, c.gy)
		}
	}
}

// TestOutlierRouting checks points outside the declared space are
// clamped to an edge shard, tracked by the effective bounds, and found
// by routed queries.
func TestOutlierRouting(t *testing.T) {
	pts := []nwcq.Point{
		{X: 10, Y: 10, ID: 1}, {X: 12, Y: 12, ID: 2},
		{X: 90, Y: 90, ID: 3}, {X: 92, Y: 92, ID: 4},
	}
	_, sh := buildBoth(t, pts, 4)

	// Insert points beyond every edge of the declared space.
	outliers := []nwcq.Point{
		{X: -20, Y: 50, ID: 100}, {X: 130, Y: 50, ID: 101},
		{X: -25, Y: 48, ID: 102}, {X: 128, Y: 52, ID: 103},
	}
	for _, p := range outliers {
		if err := sh.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// A query out at the west outlier cluster must find the group there
	// even though it is far outside every nominal shard region.
	res, err := sh.NWC(nwcq.Query{X: -22, Y: 49, Length: 10, Width: 10, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("outlier group not found")
	}
	for _, o := range res.Objects {
		if o.ID != 100 && o.ID != 102 {
			t.Fatalf("unexpected object %d in outlier group", o.ID)
		}
	}
	// And deleting them must route to wherever they were stored.
	for _, p := range outliers {
		found, err := sh.Delete(p)
		if err != nil || !found {
			t.Fatalf("delete outlier %d: found=%v err=%v", p.ID, found, err)
		}
	}
}

// idSet is a group's object IDs, ascending.
func idSet(g nwcq.Group) []uint64 {
	ids := make([]uint64, len(g.Objects))
	for i, o := range g.Objects {
		ids[i] = o.ID
	}
	slices.Sort(ids)
	return ids
}

// TestBorderMergeOnTheSeam exercises the three places the router sweeps
// fetched points (core.GroupsWithin) where they run: queries within l of a
// shard seam, whose answers straddle it. NWC (border merge under the local
// best) and kNWC (the certification loop, reruns included; with no local
// estimate, the first sweep of a box) must equal the single index under
// every measure in count, distances and object sets. Two sets may tie for a
// place — sets sharing the member, or the window, that sets their distance —
// and the single index keeps the one it met first, a shard the one its own
// points make: a differing set must be n objects inside the l × w window it
// is reported with, and such ties must stay the exception.
func TestBorderMergeOnTheSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := straddlePoints(rng, 90)
	single, sh := buildBoth(t, pts, 4)
	groups, tied, unbounded := 0, 0, 0
	for _, m := range allMeasures {
		for i := 0; i < 12; i++ {
			l, w := 3+rng.Float64()*5, 3+rng.Float64()*5
			q := nwcq.Query{X: 50 + (2*rng.Float64()-1)*l, Y: rng.Float64() * 100, Length: l, Width: w, N: 2 + i%5, Measure: m}
			if i%2 == 1 {
				q.X, q.Y = rng.Float64()*100, 50+(2*rng.Float64()-1)*w
			}
			label := fmt.Sprintf("%s q%d %+v", m, i, q)
			sameOrTied := func(what string, got, want nwcq.Group) {
				t.Helper()
				if got.Dist != want.Dist {
					t.Fatalf("%s: %s at %v, the single index's at %v", label, what, got.Dist, want.Dist)
				}
				if groups++; slices.Equal(idSet(got), idSet(want)) {
					return
				}
				tied++
				win := got.Window
				fits := len(got.Objects) == q.N && math.Abs(win.MaxX-win.MinX-l) < distEps && math.Abs(win.MaxY-win.MinY-w) < distEps
				for _, o := range got.Objects {
					fits = fits && win.MinX <= o.X && o.X <= win.MaxX && win.MinY <= o.Y && o.Y <= win.MaxY
				}
				if !fits {
					t.Fatalf("%s: %s holds %v in %+v, the single index's %v", label, what, got.Objects, win, idSet(want))
				}
			}
			want, err := single.NWC(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.NWC(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Found != want.Found {
				t.Fatalf("%s: found=%v, the single index %v", label, got.Found, want.Found)
			}
			if got.Found {
				sameOrTied("the group", got.Group, want.Group)
				local := false
				for _, ix := range sh.shards {
					r, err := ix.NWC(q)
					local = local || err == nil && r.Found
				}
				if !local {
					unbounded++ // no shard had an answer: every point fetched, swept under +Inf
				}
			}
			kq := nwcq.KQuery{Query: q, K: 3, M: 1}
			kwant, err := single.KNWC(kq)
			if err != nil {
				t.Fatal(err)
			}
			kgot, err := sh.KNWC(kq)
			if err != nil {
				t.Fatal(err)
			}
			if len(kgot.Groups) != len(kwant.Groups) {
				t.Fatalf("%s: kNWC %d groups, the single index %d", label, len(kgot.Groups), len(kwant.Groups))
			}
			for j, g := range kgot.Groups {
				sameOrTied(fmt.Sprintf("kNWC group %d", j), g, kwant.Groups[j])
			}
		}
	}
	if tied*8 > groups {
		t.Fatalf("%d of %d groups differ from the single index's in their objects", tied, groups)
	}
	if st := sh.RouterStats(); st.BorderFetches == 0 || st.FetchReruns == 0 || unbounded == 0 {
		t.Fatalf("border fetches %d, certification reruns %d, NWC answers no shard had %d: want all above zero", st.BorderFetches, st.FetchReruns, unbounded)
	}
}

// TestBestOfZeroNeedsNoBorder: under the max and avg measures a local best
// of zero is the answer — nothing is under it, and every group at zero lies
// at q, in the home shard — however many shards its box touches: no fetch,
// no sweep. Under min and window a group at zero need not lie at q, and one
// in another shard may tie with it: the border is fetched.
func TestBestOfZeroNeedsNoBorder(t *testing.T) {
	pts := straddlePoints(rand.New(rand.NewSource(25)), 60)
	single, sh := buildBoth(t, pts, 4)
	p := pts[0] // hugs the vertical seam
	for _, m := range allMeasures {
		q := nwcq.Query{X: p.X, Y: p.Y, Length: 6, Width: 6, N: 1, Measure: m}
		want, err := single.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		before := sh.RouterStats().BorderFetches
		got, err := sh.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Found || got.Dist != 0 || want.Dist != 0 {
			t.Fatalf("%s: found=%v at %v, the single index at %v: want zero", m, got.Found, got.Dist, want.Dist)
		}
		if !reflect.DeepEqual(got.Group, want.Group) {
			t.Fatalf("%s: %+v, the single index %+v", m, got.Group, want.Group)
		}
		atQ := m == nwcq.MaxDistance || m == nwcq.AvgDistance
		if after := sh.RouterStats().BorderFetches; (after == before) != atQ {
			t.Fatalf("%s: %d border fetches for a best of zero", m, after-before)
		}
	}
}

// TestManifestWrittenByTheParentOpens: manifest.json is a file format and
// keeps its MinX…MaxY keys whatever wire names geom.Rect is tagged with.
// testdata/manifest.json was written by the commit before the tags; a
// directory built now writes the same bytes and reopens from those.
func TestManifestWrittenByTheParentOpens(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	area := nwcq.Rect{MinX: -12.5, MinY: 0.1, MaxX: 100, MaxY: 1e6}
	dir := filepath.Join(t.TempDir(), "cluster")
	sh, err := NewSharded([]nwcq.Point{{X: 1, Y: 2, ID: 1}, {X: 90, Y: 80, ID: 2}}, Options{Shards: 4, Space: area, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if written, err := os.ReadFile(path); err != nil || string(written) != string(old) {
		t.Fatalf("manifest written as %s (err %v), the parent wrote %s", written, err, old)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 4 || re.space != area || re.Len() != 2 {
		t.Fatalf("reopened %d shards over %v holding %d points; want 4 over %v holding 2", re.Shards(), re.space, re.Len(), area)
	}
}

// FuzzManifest hands OpenSharded a fuzzed manifest.json over a directory
// of four real shards. It must return an error or an opened router
// holding the shards' points, never panic, and never size an allocation
// by a declared shard count it has not checked against the shard files.
// The corpus (testdata/fuzz/FuzzManifest) holds a count of 2^50, which
// once panicked in newRouter.
func FuzzManifest(f *testing.F) {
	pts := straddlePoints(rand.New(rand.NewSource(9)), 20)
	dir := f.TempDir()
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sh, err := OpenSharded(dir, Options{})
		if err != nil {
			return
		}
		defer sh.Close()
		if sh.Shards() != 4 || sh.Len() != len(pts) {
			t.Fatalf("opened %d shards holding %d points; the directory has 4 holding %d", sh.Shards(), sh.Len(), len(pts))
		}
	})
}

// TestRouterLeavesAShardsGroupsAsTheyWere: a shard's answer — its cached
// answer, when the shards cache — is the router's pool entry and the
// router's result, not a copy of it, so the merge (the pool sorted, the
// set keys compared, the border sweep beside it) must only read it. Every
// shard's own answers are the same before and after routed queries on the
// seam, and a routed result held by the caller survives later routed
// queries and the overwriting of their objects.
func TestRouterLeavesAShardsGroupsAsTheyWere(t *testing.T) {
	pts := straddlePoints(rand.New(rand.NewSource(41)), 400)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Parallelism: 1,
		Build: []nwcq.BuildOption{nwcq.WithResultCache(64)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	deep := func(groups []nwcq.Group) []nwcq.Group {
		out := slices.Clone(groups)
		for i := range out {
			out[i].Objects = slices.Clone(out[i].Objects)
		}
		return out
	}
	same := func(a, b []nwcq.Group) bool {
		return slices.EqualFunc(a, b, func(g, h nwcq.Group) bool {
			return g.Dist == h.Dist && g.Window == h.Window && slices.Equal(g.Objects, h.Objects)
		})
	}
	for _, m := range allMeasures {
		q := nwcq.KQuery{Query: nwcq.Query{X: 50, Y: 50, Length: 8, Width: 8, N: 3, Measure: m}, K: 4, M: 1}
		// Each shard's own answers, which also fills its cache.
		var before [][]nwcq.Group
		for _, ix := range sh.shards {
			kr, err := ix.KNWC(q)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ix.NWC(q.Query)
			if err != nil {
				t.Fatal(err)
			}
			before = append(before, deep(append(slices.Clone(kr.Groups), r.Group)))
		}
		held, err := sh.KNWC(q)
		if err != nil {
			t.Fatal(err)
		}
		held1, err := sh.NWC(q.Query)
		if err != nil {
			t.Fatal(err)
		}
		want := deep(append(slices.Clone(held.Groups), held1.Group))
		for dx := 0.5; dx <= 2; dx += 0.5 {
			qb := q
			qb.X += dx
			other, err := sh.KNWC(qb)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range other.Groups {
				scribble(g.Objects)
			}
			other1, err := sh.NWC(qb.Query)
			if err != nil {
				t.Fatal(err)
			}
			scribble(other1.Objects)
		}
		if !same(append(slices.Clone(held.Groups), held1.Group), want) {
			t.Fatalf("%v: a held routed result changed under later queries", m)
		}
		for i, ix := range sh.shards {
			kr, err := ix.KNWC(q)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ix.NWC(q.Query)
			if err != nil {
				t.Fatal(err)
			}
			if !same(append(slices.Clone(kr.Groups), r.Group), before[i]) {
				t.Fatalf("%v: shard %d's cached answer changed under routed queries", m, i)
			}
		}
	}
}

func scribble(pts []nwcq.Point) {
	for i := range pts {
		pts[i] = nwcq.Point{X: -1e9, Y: 1e9, ID: ^uint64(i)}
	}
}
