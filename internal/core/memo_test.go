package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"nwcq/internal/geom"
)

// memoLattice is the dataset the memo tests fetch regions of: a 12 × 12
// lattice of spacing 4 (coordinates 0..44), where every third site holds
// a second object and every ninth a third one at the same coordinates
// under other IDs. Region bounds are even numbers, so half of them run
// through lattice sites: points sit exactly on the boundary two strips
// share, which is where a point could be fetched twice or not at all.
func memoLattice() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			for c := 0; c < 3; c++ {
				if c == 1 && (i+j)%3 != 0 || c == 2 && (i+j)%9 != 0 {
					continue
				}
				pts = append(pts, geom.Point{X: float64(4 * i), Y: float64(4 * j), ID: uint64(len(pts))})
			}
		}
	}
	return pts
}

// decodeRegions reads one region per four bytes: x and y of the lower
// corner from 0 to 48, width and height from −2 (an empty region) over 0
// (a segment, what SRR leaves of a region at the edge of the bound) to 28,
// all even.
func decodeRegions(data []byte) []geom.Rect {
	var out []geom.Rect
	for ; len(data) >= 4 && len(out) < 64; data = data[4:] {
		x, y := float64(data[0]%25*2), float64(data[1]%25*2)
		out = append(out, geom.Rect{
			MinX: x, MinY: y,
			MaxX: x + float64(data[2]%16)*2 - 2,
			MaxY: y + float64(data[3]%16)*2 - 2,
		})
	}
	return out
}

// encodeRegions is the inverse of decodeRegions on regions it can express.
func encodeRegions(rs []geom.Rect) []byte {
	var out []byte
	for _, r := range rs {
		out = append(out, byte(r.MinX/2), byte(r.MinY/2), byte((r.Width()+2)/2), byte((r.Height()+2)/2))
	}
	return out
}

func byID(a, b geom.Point) int { return cmp.Compare(a.ID, b.ID) }

// memoQuery is the query the memo tests' regions belong to: its unshrunk
// search region is 8 × 8, so the memo may span 32 × 32 of the lattice's 44.
var memoQuery = Query{Q: geom.Point{X: 21, Y: 19}, L: 8, W: 4, N: 1}

// checkMemoSequence asks one memo for the regions in turn — through IWP's
// window query from the leaf that mode picks (mode odd) or through the
// traditional one (mode even) — and demands of every answer exactly the
// points of the region, each once and with its distance to q, and of one
// the memo serves exactly the memo's y-band of the region, in (Y, X, ID)
// order; of the memo after it, exactly the points of the closed rectangle
// it says it holds, in (Y, X, ID) order, and no rectangle wider or taller
// than its span.
func checkMemoSequence(t *testing.T, eng *Engine, pts []geom.Point, mode byte, regions []geom.Rect) {
	t.Helper()
	q := memoQuery.Q
	r := eng.tree.Reader(context.Background(), nil)
	viaIWP := mode&1 == 1
	leaf := eng.tree.Root()
	for pick := int(mode >> 1); ; pick /= 2 {
		n, err := r.Node(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			break
		}
		leaf = n.Children[pick%len(n.Children)]
	}
	inside := func(rect geom.Rect) []geom.Point {
		var in []geom.Point
		for _, p := range pts {
			if rect.ContainsPoint(p) {
				in = append(in, p)
			}
		}
		return in // pts is in ID order
	}
	sc := getScratch()
	defer putScratch(sc)
	m := &sc.memo
	for step, sr := range regions {
		cand, ordered, err := eng.anchorCandidates(r, viaIWP, leaf, sr, memoQuery, false, sc)
		if err != nil {
			t.Fatal(err)
		}
		if ordered {
			band := 0
			for _, o := range m.pts {
				if o.p.Y >= sr.MinY && o.p.Y <= sr.MaxY {
					band++
				}
			}
			for i, o := range cand {
				if o.p.Y < sr.MinY || o.p.Y > sr.MaxY || i > 0 && yOrder(cand[i-1], o) >= 0 {
					t.Fatalf("step %d %v: served run %v is not the memo's y-band in (Y, X, ID) order", step, sr, cand)
				}
			}
			if len(cand) != band {
				t.Fatalf("step %d %v: served run holds %d points, the memo's y-band %d", step, sr, len(cand), band)
			}
		}
		var got []geom.Point
		for _, o := range cand {
			if o.p.X < sr.MinX || o.p.X > sr.MaxX {
				continue
			}
			if o.d != q.Dist(o.p) {
				t.Fatalf("step %d %v: point %v carries distance %g, want %g", step, sr, o.p, o.d, q.Dist(o.p))
			}
			got = append(got, o.p)
		}
		slices.SortFunc(got, byID)
		if want := inside(sr); !slices.Equal(got, want) {
			t.Fatalf("step %d, region %v of %v: got %v, want %v", step, sr, regions, got, want)
		}
		checkHeld(t, m, pts, fmt.Sprintf("step %d, region %v of %v", step, sr, regions))
		if !m.have.IsEmpty() && (m.have.Width() > memoSpan*memoQuery.L || m.have.Height() > memoSpan*2*memoQuery.W) {
			t.Fatalf("step %d, region %v of %v: memo grew to %v, past %d regions a side", step, sr, regions, m.have, memoSpan)
		}
	}
}

// checkHeld demands of the memo its invariant: exactly the indexed points
// inside have, each once, in (Y, X, ID) order, each with its distance to
// the query point (memoQuery's, or the one a seeded memo was read for).
func checkHeld(t *testing.T, m *windowMemo, pts []geom.Point, at string) {
	t.Helper()
	held := make([]geom.Point, len(m.pts))
	for i, o := range m.pts {
		if i > 0 && yOrder(m.pts[i-1], o) >= 0 {
			t.Fatalf("%s: memo not in (Y, X, ID) order at %d", at, i)
		}
		held[i] = o.p
	}
	slices.SortFunc(held, byID)
	var want []geom.Point
	for _, p := range pts {
		if m.have.ContainsPoint(p) {
			want = append(want, p)
		}
	}
	if !slices.Equal(held, want) {
		t.Fatalf("%s: memo of %v holds %v, want %v", at, m.have, held, want)
	}
}

// TestSeedMemo holds the memo's first growth under the max measure, the
// seed's read of W0 (DESIGN.md §19 "The seed"), to the memo's invariant and
// the seed to W0's n nearest, an ulp up, on the lattice whose sites lie on
// W0's edges: with a seed the memo is W0 cut to the seed's box, without one
// all of W0, and anchors grow it from there like any other rectangle.
func TestSeedMemo(t *testing.T) {
	pts := memoLattice()
	eng, err := quickEngine(pts)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.tree.Reader(context.Background(), nil)
	leaf := eng.tree.Root()
	for {
		n, err := r.Node(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			break
		}
		leaf = n.Children[0]
	}
	for _, c := range []struct {
		qy     Query
		seeded bool
	}{
		{memoQuery, true}, // the box cuts W0 along x
		{Query{Q: geom.Point{X: 22, Y: 22}, L: 16, W: 16, N: 6}, true}, // and along both
		{Query{Q: geom.Point{X: 22, Y: 22}, L: 4, W: 4, N: 5}, true},   // W0's corners are its five points, all inside the box
		{Query{Q: geom.Point{X: 22, Y: 22}, L: 4, W: 4, N: 6}, false},  // one short
	} {
		for _, viaIWP := range []bool{false, true} {
			sc := getScratch()
			seed, err := eng.seedMemo(r, viaIWP, leaf, c.qy, sc)
			if err != nil {
				t.Fatal(err)
			}
			q, m := c.qy.Q, &sc.memo
			at := fmt.Sprintf("%+v (IWP %v)", c.qy, viaIWP)
			w0 := geom.RectAround(q).Buffer(c.qy.L/2, c.qy.W/2)
			want, have := math.Inf(1), w0
			if g := w0Group(c.qy, pts); g != nil {
				want = q.Dist(g[c.qy.N-1])
				b := want * boxSlack
				have = w0.Intersection(geom.RectAround(q).Buffer(b, b))
			}
			if seed != want || !math.IsInf(seed, 1) != c.seeded || m.have != have {
				t.Fatalf("%s: seed %v and memo %v, want %v and %v", at, seed, m.have, want, have)
			}
			checkHeld(t, m, pts, at)
			for _, o := range m.pts {
				if o.d != q.Dist(o.p) {
					t.Fatalf("%s: point %v carries distance %g, want %g", at, o.p, o.d, q.Dist(o.p))
				}
			}
			for step, sr := range memoSequences["four-strips"] {
				if _, _, err := eng.anchorCandidates(r, viaIWP, leaf, sr, c.qy, false, sc); err != nil {
					t.Fatal(err)
				}
				checkHeld(t, m, pts, fmt.Sprintf("%s, step %d", at, step))
			}
			putScratch(sc)
		}
	}
}

// memoSequences are the shapes a query's regions take, by name.
var memoSequences = map[string][]geom.Rect{
	"nested":        {{MinX: 8, MinY: 8, MaxX: 30, MaxY: 30}, {MinX: 12, MinY: 12, MaxX: 20, MaxY: 20}, {MinX: 8, MinY: 8, MaxX: 30, MaxY: 30}, {MinX: 14, MinY: 10, MaxX: 14, MaxY: 28}},
	"disjoint":      {{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}, {MinX: 40, MinY: 40, MaxX: 48, MaxY: 48}, {MinX: 0, MinY: 40, MaxX: 4, MaxY: 44}, {MinX: 2, MinY: 2, MaxX: 6, MaxY: 8}},
	"edge-touching": {{MinX: 8, MinY: 8, MaxX: 16, MaxY: 16}, {MinX: 16, MinY: 8, MaxX: 24, MaxY: 16}, {MinX: 8, MinY: 16, MaxX: 24, MaxY: 24}, {MinX: 0, MinY: 24, MaxX: 8, MaxY: 32}},
	"zero-height":   {{MinX: 4, MinY: 12, MaxX: 24, MaxY: 12}, {MinX: 8, MinY: 12, MaxX: 28, MaxY: 12}, {MinX: 6, MinY: 10, MaxX: 26, MaxY: 14}, {MinX: 10, MinY: 16, MaxX: 30, MaxY: 16}},
	"four-strips":   {{MinX: 16, MinY: 16, MaxX: 28, MaxY: 28}, {MinX: 12, MinY: 12, MaxX: 32, MaxY: 32}, {MinX: 8, MinY: 20, MaxX: 36, MaxY: 24}, {MinX: 20, MinY: 8, MaxX: 24, MaxY: 36}},
	"sliding":       {{MinX: 0, MinY: 8, MaxX: 12, MaxY: 32}, {MinX: 2, MinY: 8, MaxX: 14, MaxY: 30}, {MinX: 4, MinY: 10, MaxX: 16, MaxY: 32}, {MinX: 6, MinY: 8, MaxX: 18, MaxY: 28}, {MinX: 8, MinY: 12, MaxX: 20, MaxY: 34}},
	// Search regions marching right, half a region a step: the eighth would
	// make the memo 36 wide. The last lies inside what was fetched before.
	"past-the-span": {{MinX: 0, MinY: 16, MaxX: 8, MaxY: 24}, {MinX: 4, MinY: 16, MaxX: 12, MaxY: 24}, {MinX: 8, MinY: 16, MaxX: 16, MaxY: 24}, {MinX: 12, MinY: 16, MaxX: 20, MaxY: 24}, {MinX: 16, MinY: 16, MaxX: 24, MaxY: 24}, {MinX: 20, MinY: 16, MaxX: 28, MaxY: 24}, {MinX: 24, MinY: 16, MaxX: 32, MaxY: 24}, {MinX: 28, MinY: 16, MaxX: 36, MaxY: 24}, {MinX: 32, MinY: 16, MaxX: 40, MaxY: 24}, {MinX: 2, MinY: 16, MaxX: 10, MaxY: 24}},
	"empty":         {{MinX: 8, MinY: 8, MaxX: 6, MaxY: 20}, {MinX: 8, MinY: 8, MaxX: 20, MaxY: 20}, {MinX: 30, MinY: 30, MaxX: 40, MaxY: 28}, {MinX: 10, MinY: 10, MaxX: 8, MaxY: 8}},
}

// TestMemoRegionTable runs the named sequences through both window
// queries and from several leaves.
func TestMemoRegionTable(t *testing.T) {
	pts := memoLattice()
	eng, err := quickEngine(pts)
	if err != nil {
		t.Fatal(err)
	}
	for name, seq := range memoSequences {
		if !reflect.DeepEqual(decodeRegions(encodeRegions(seq)), seq) {
			t.Fatalf("%s: the fuzz encoding cannot express %v", name, seq)
		}
		for mode := byte(0); mode < 8; mode++ {
			checkMemoSequence(t, eng, pts, mode, seq)
		}
	}
	// The guards must have let the memo grow and must have refused: a table
	// that only ever bypassed, or never did, would prove little.
	r := eng.tree.Reader(context.Background(), nil)
	for _, c := range []struct {
		seq  []geom.Rect
		want geom.Rect
	}{
		// memoWaste refuses the far corner, memoSpan the eighth step right.
		{memoSequences["disjoint"][:2], memoSequences["disjoint"][0]},
		{memoSequences["past-the-span"], geom.Rect{MinX: 0, MinY: 16, MaxX: 32, MaxY: 24}},
	} {
		sc := getScratch()
		for _, sr := range c.seq {
			if _, _, err := eng.anchorCandidates(r, false, 0, sr, memoQuery, false, sc); err != nil {
				t.Fatal(err)
			}
		}
		if sc.memo.have != c.want {
			t.Errorf("after %v the memo holds %v, want %v", c.seq, sc.memo.have, c.want)
		}
		putScratch(sc)
	}
}

// FuzzMemoRegion drives the memo with byte-derived region sequences; the
// seed corpus (testdata/fuzz/FuzzMemoRegion) is the table above under
// encodeRegions, once per window query.
func FuzzMemoRegion(f *testing.F) {
	pts := memoLattice()
	eng, err := quickEngine(pts)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		checkMemoSequence(t, eng, pts, mode, decodeRegions(data))
	})
}

// TestSharedEqualsPerAnchor is the contract of everything Exec.Paper turns
// off with the rest of the engine: the serving execution — window queries
// shared between anchors, NWC under MeasureMax stopped at the bound, kNWC
// at the reach of its k-th — and Algorithm 1's return the same answer, bit
// for bit, under each of the seven schemes and four measures, for NWC and
// kNWC (the first group: the paper's kNWC breaks ties its own way, and its
// traversal with a pool that keeps ties gives all of them), on uniform,
// clustered and duplicate-heavy data, and no counter of a serving query may
// exceed the paper execution's (for kNWC, with that pool). Node visits are
// compared per dataset and scheme: a single query with a handful of anchors
// can read a few nodes more when shared (a strip is longer and thinner than
// the region it completes), so "no more than per anchor" holds of sums, not
// of every query.
func TestSharedEqualsPerAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	datasets := map[string][]geom.Point{}
	for i := 0; i < 1500; i++ {
		id := uint64(i)
		datasets["uniform"] = append(datasets["uniform"], geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: id})
		datasets["gaussian"] = append(datasets["gaussian"], geom.Point{
			X: clamp(500+rng.NormFloat64()*90, 0, 1000), Y: clamp(500+rng.NormFloat64()*90, 0, 1000), ID: id})
		// 150 sites on a lattice of spacing 25, ten objects to a site on average.
		datasets["duplicates"] = append(datasets["duplicates"], geom.Point{
			X: 300 + float64(rng.Intn(15))*25, Y: 300 + float64(rng.Intn(10))*25, ID: id})
	}
	queries := []Query{
		{Q: geom.Point{X: 500, Y: 500}, L: 40, W: 40, N: 4},
		{Q: geom.Point{X: 430, Y: 560}, L: 60, W: 25, N: 6},
		{Q: geom.Point{X: 905, Y: 120}, L: 30, W: 80, N: 3},
	}
	for name, pts := range datasets {
		eng := buildEngine(t, pts, 8, 25)
		for _, scheme := range PaperSchemes {
			var shared, perAnchor uint64
			// noMoreButVisits adds the node visits to the scheme's two sums
			// and demands no other counter above the paper's.
			noMoreButVisits := func(what string, st, stPA Stats) {
				t.Helper()
				shared, perAnchor = shared+st.NodeVisits, perAnchor+stPA.NodeVisits
				if st.ObjectsProcessed > stPA.ObjectsProcessed || st.ObjectsSkipped > stPA.ObjectsSkipped ||
					st.NodesPruned > stPA.NodesPruned || st.WindowQueries > stPA.WindowQueries ||
					st.CandidateWindows > stPA.CandidateWindows || st.QualifiedWindows > stPA.QualifiedWindows ||
					st.GridProbes > stPA.GridProbes {
					t.Errorf("%s %v %s: stats served %+v exceed the paper's %+v", name, scheme, what, st, stPA)
				}
			}
			for _, qy := range queries {
				for _, measure := range allMeasures {
					res, st, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					resPA, stPA, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{Paper: true})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, resPA) {
						t.Fatalf("%s %v %v %+v: NWC shared %+v, per-anchor %+v", name, scheme, measure, qy, res, resPA)
					}
					if res.Found {
						checkWindow(t, name, qy, res.Group, measure == MeasureWindow)
					}
					noMoreButVisits("NWC "+measure.String(), st, stPA)

					kq := KNWCQuery{Query: qy, K: 3, M: 1}
					groups, st, err := eng.KNWC(context.Background(), kq, scheme, measure, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					groupsPA, stPA, err := eng.KNWC(context.Background(), kq, scheme, measure, Exec{Paper: true})
					if err != nil {
						t.Fatal(err)
					}
					// The paper's kNWC keeps its strict pool and its own order of
					// equal distances, which can change the later groups and their
					// number (DESIGN.md §2): compared on the first group's
					// distance, the optimum. Its traversal with a pool that keeps
					// ties returns the same groups as the serving execution and
					// bounds its work.
					groupsRef, stRef, _, _, err := watchedKNWC(eng, kq, scheme, measure, Exec{Paper: true})
					if err != nil {
						t.Fatal(err)
					}
					if len(groups) == 0 != (len(groupsPA) == 0) || len(groups) > 0 && groups[0].Dist != groupsPA[0].Dist || !sameGroups(groups, groupsRef) {
						t.Fatalf("%s %v %v %+v: kNWC shared %+v, per-anchor %+v, keeping ties %+v", name, scheme, measure, kq, groups, groupsPA, groupsRef)
					}
					noMoreButVisits("kNWC "+measure.String(), st, stRef)
				}
			}
			if shared > perAnchor {
				t.Errorf("%s %v: sharing read %d nodes where one query per anchor read %d", name, scheme, shared, perAnchor)
			}
		}
	}
}

// TestUnprunedSharedTakesPerAnchorTime is the wall-clock side of the test
// above, for the queries node visits flatter: under plain NWC or IWP alone
// no bound stops the traversal, every object of the dataset is an anchor,
// and one served from the memo reads no node but scans an x-band as tall
// as the memo. memoSpan keeps that scan under the cost of the range query
// it replaces; without it this query takes 1.8 times as long shared as
// per anchor (three times on 40,000 points), and 1.4 times at a span of
// 16. The fastest of five alternating runs a side is compared, which
// noise can only raise.
func TestUnprunedSharedTakesPerAnchorTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	rng := rand.New(rand.NewSource(17))
	pts := make([]geom.Point, 8000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
	}
	eng := buildEngine(t, pts, 50, 25)
	qy := Query{Q: geom.Point{X: 500, Y: 500}, L: 40, W: 40, N: 4}
	for _, scheme := range []Scheme{SchemeNWC, SchemeIWP} {
		fastest := map[bool]time.Duration{}
		for run := 0; run < 5; run++ {
			for _, perAnchor := range []bool{false, true} {
				start := time.Now()
				if _, _, err := eng.NWC(context.Background(), qy, scheme, MeasureMax, Exec{Paper: perAnchor}); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); run == 0 || d < fastest[perAnchor] {
					fastest[perAnchor] = d
				}
			}
		}
		if shared, perAnchor := fastest[false], fastest[true]; shared > perAnchor*5/4 {
			t.Errorf("%v: %v shared, %v per anchor: sharing costs an unpruned query more than a quarter", scheme, shared, perAnchor)
		}
	}
}

// consultCtx counts the times it was asked and answered "not done", and
// cancels itself once it has answered so cancelAt times.
type consultCtx struct {
	context.Context
	consults, cancelAt uint64
	cancel             context.CancelFunc
}

func (c *consultCtx) Err() error {
	err := c.Context.Err()
	if err == nil {
		if c.consults++; c.consults == c.cancelAt {
			c.cancel()
		}
	}
	return err
}

// TestCancelStopsWithinOneAnchor cancels a dense query from inside the
// verification of an anchor, at each improvement of the bound in turn, and
// after each consult of the context in turn, which includes every node the
// first anchor reads of W0, the seed's window (DESIGN.md §19). The reader
// consults the context before every node it reads, but in a hot spot the
// anchors that follow are served from the memo and read none: search has
// to consult it for them. Each consult that says "go on" is followed by
// exactly one node visit or one object, so when nothing ran after the
// cancellation the two add up to the consults counted at it. The queries
// lie at the cluster's edge, where the bound still improves after the seed.
func TestCancelStopsWithinOneAnchor(t *testing.T) {
	eng, _ := denseFixture(t)
	for i, c := range []geom.Point{{X: 350, Y: 380}, {X: 550, Y: 670}, {X: 630, Y: 350}} {
		qy := Query{Q: c, L: 30, W: 30, N: 8}
		// run searches qy with its seed and cancels at the stopAt-th
		// improvement or the cancelAt-th consult, whichever comes first.
		run := func(stopAt int, cancelAt uint64) (st Stats, seed float64, improvements int, atCancel uint64, err error) {
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &consultCtx{Context: parent, cancelAt: cancelAt, cancel: cancel}
			best := math.Inf(1)
			seed, atCancel = math.Inf(1), cancelAt
			st, err = eng.search(ctx, qy, SchemeNWCStar, collector{
				bound: func() float64 { return best },
				take: func(dist float64, _ []distPoint) bool {
					if dist >= best {
						return false
					}
					best = dist
					if improvements++; improvements == stopAt {
						atCancel = ctx.consults
						cancel()
					}
					return true
				}}, MeasureMax, Exec{}, true, &seed)
			return st, seed, improvements, atCancel, err
		}
		check := func(what string, st Stats, err error, atCancel uint64) {
			t.Helper()
			if err != context.Canceled {
				t.Fatalf("query %d cancelled %s: err = %v", i, what, err)
			}
			if done := st.NodeVisits + uint64(st.ObjectsProcessed); done != atCancel {
				t.Fatalf("query %d cancelled %s after %d consults: %d node visits + %d objects = %d, so %d ran after it",
					i, what, atCancel, st.NodeVisits, st.ObjectsProcessed, done, done-atCancel)
			}
		}
		for stopAt := 1; ; stopAt++ {
			st, seed, improvements, atCancel, err := run(stopAt, 0)
			if improvements < stopAt {
				if err != nil {
					t.Fatalf("query %d: uncancelled run failed: %v", i, err)
				}
				if math.IsInf(seed, 1) || stopAt < 3 {
					t.Fatalf("query %d: seed %v and only %d improvements, nothing to cancel at", i, seed, improvements)
				}
				break
			}
			check(fmt.Sprintf("at improvement %d", stopAt), st, err, atCancel)
		}
		inFetch := 0
		for cancelAt := uint64(1); ; cancelAt++ {
			st, seed, _, _, err := run(0, cancelAt)
			if err == nil {
				break
			}
			check(fmt.Sprintf("at consult %d", cancelAt), st, err, cancelAt)
			if st.ObjectsProcessed == 1 && math.IsInf(seed, 1) {
				inFetch++
			}
		}
		if inFetch == 0 {
			t.Errorf("query %d: no cancellation landed in the seed's fetch", i)
		}
	}
}
