package nwcq

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// Incremental IWP maintenance at the index level (DESIGN.md §17). The
// node-by-node equivalence of iwp.Index.Apply with iwp.Build lives in
// internal/iwp; these tests pin what the view layer adds: a superseded
// view keeps a valid index of its own for as long as it is pinned or
// retained, and a mutation costs no read of the whole tree.

// mutOp is one step of a recorded mutation sequence.
type mutOp struct {
	insert bool
	p      Point
}

// buildMutationScript returns a deterministic base set, an op sequence,
// and versions[k] = the point set after applying the first k ops. The
// script mixes inserts (including periodic far-out-of-space outliers
// that force a density-grid rebuild) with deletes of live points.
func buildMutationScript(nBase, nOps int, seed int64) (base []Point, ops []mutOp, versions [][]Point) {
	rng := rand.New(rand.NewSource(seed))
	base = make([]Point, nBase)
	for i := range base {
		base[i] = Point{X: rng.Float64() * 400, Y: rng.Float64() * 400, ID: uint64(i)}
	}
	live := append([]Point(nil), base...)
	versions = append(versions, append([]Point(nil), live...))
	nextID := uint64(10_000)
	for len(ops) < nOps {
		var op mutOp
		if len(live) > nBase/2 && rng.Float64() < 0.45 {
			op = mutOp{insert: false, p: live[rng.Intn(len(live))]}
		} else {
			p := Point{X: rng.Float64() * 400, Y: rng.Float64() * 400, ID: nextID}
			if len(ops)%10 == 9 {
				// Outlier far outside the current space: Insert must
				// rebuild the grid and publish it with the tree.
				p.X = 900 + float64(len(ops))*40
				p.Y = 900 + float64(len(ops))*40
			}
			nextID++
			op = mutOp{insert: true, p: p}
		}
		ops = append(ops, op)
		if op.insert {
			live = append(live, op.p)
		} else {
			for i := range live {
				if live[i] == op.p {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		versions = append(versions, append([]Point(nil), live...))
	}
	return base, ops, versions
}

// mutOracle memoises brute-force answers per (query, version) so
// concurrent checkers share the O(N³) work.
type mutOracle struct {
	mu       sync.Mutex
	versions [][]Point
	nwc      map[[2]int]core.Result
}

func newMutOracle(versions [][]Point) *mutOracle {
	return &mutOracle{versions: versions, nwc: map[[2]int]core.Result{}}
}

func (o *mutOracle) NWC(qi, ver int, q Query) core.Result {
	o.mu.Lock()
	defer o.mu.Unlock()
	key := [2]int{qi, ver}
	if r, ok := o.nwc[key]; ok {
		return r
	}
	r := core.BruteForceNWC(o.versions[ver], core.Query{
		Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N,
	}, core.MeasureMax)
	o.nwc[key] = r
	return r
}

func nwcAgrees(res Result, want core.Result) bool {
	if res.Found != want.Found {
		return false
	}
	return !res.Found || math.Abs(res.Dist-want.Group.Dist) <= 1e-9
}

// iwpQueries are answered under both IWP-bearing schemes, so an index
// out of step with its view's tree shows up as a wrong answer or a
// "leaf unknown to the index" error.
var iwpQueries = []Query{
	{X: 200, Y: 200, Length: 60, Width: 60, N: 3},
	{X: 40, Y: 360, Length: 90, Width: 50, N: 4},
	{X: 330, Y: 90, Length: 45, Width: 80, N: 2},
	{X: 1200, Y: 1200, Length: 120, Width: 120, N: 2},
}

var iwpSchemes = []Scheme{SchemeIWP, SchemeNWCStar}

// checkViewAgainstOracle runs every IWP query through ask and compares
// it with the brute-force answer over version ver.
func checkViewAgainstOracle(t *testing.T, label string, oracle *mutOracle, ver int, ask func(Query) (Result, error)) {
	t.Helper()
	for qi, q := range iwpQueries {
		for _, scheme := range iwpSchemes {
			q.Scheme = scheme
			res, err := ask(q)
			if err != nil {
				t.Errorf("%s: version %d query %d under %v: %v", label, ver, qi, scheme, err)
				return
			}
			if want := oracle.NWC(qi, ver, q); !nwcAgrees(res, want) {
				t.Errorf("%s: version %d query %d under %v: found=%v dist=%g, oracle found=%v dist=%g",
					label, ver, qi, scheme, res.Found, res.Dist, want.Found, want.Group.Dist)
				return
			}
		}
	}
}

// TestPinnedViewsKeepTheirIWPIndex: readers hold views across 200
// publishes — by pin on an in-memory index, by retention and as-of LSN
// on a WAL-backed one — and IWP-scheme queries on those views stay
// exact for their version, both while the writer runs and after it.
func TestPinnedViewsKeepTheirIWPIndex(t *testing.T) {
	const nBase, nOps = 140, 200
	base, ops, versions := buildMutationScript(nBase, nOps, 61)
	oracle := newMutOracle(versions)
	apply := func(m Mutator, op mutOp) {
		t.Helper()
		if op.insert {
			if err := m.Insert(op.p); err != nil {
				t.Fatal(err)
			}
		} else if found, err := m.Delete(op.p); err != nil || !found {
			t.Fatalf("delete %v = (%v, %v)", op.p, found, err)
		}
	}
	ctx := context.Background()

	t.Run("pinned", func(t *testing.T) {
		idx, err := Build(base, func(o *buildOptions) { o.maxEntries = 6 })
		if err != nil {
			t.Fatal(err)
		}
		// The reader holds v0 itself: it must not read the map the loop
		// below writes.
		v0 := idx.acquire()
		pinned := map[int]*view{0: v0}
		onView := func(v *view) func(Query) (Result, error) {
			return func(q Query) (Result, error) { return idx.nwcOnView(ctx, v, q, nil) }
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the reader the writer must not disturb
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					checkViewAgainstOracle(t, "pinned, during writes", oracle, 0, onView(v0))
				}
			}
		}()
		for k, op := range ops {
			apply(idx, op)
			if ver := k + 1; ver%40 == 0 {
				pinned[ver] = idx.acquire()
			}
		}
		close(stop)
		wg.Wait()
		for ver, v := range pinned {
			checkViewAgainstOracle(t, "pinned, after writes", oracle, ver, onView(v))
			v.release()
		}
	})

	t.Run("retained", func(t *testing.T) {
		o := buildOptions{maxEntries: 6, gridCellSize: 25, viewRetention: nOps + 8}
		px := newMemPaged().build(t, base, o)
		defer px.Close()
		_, lsn0 := px.RetainedLSNs()
		lsnOf := []uint64{lsn0}
		asOf := func(lsn uint64) func(Query) (Result, error) {
			return func(q Query) (Result, error) { return px.NWCAsOf(ctx, q, lsn) }
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					checkViewAgainstOracle(t, "retained, during writes", oracle, 0, asOf(lsn0))
				}
			}
		}()
		for _, op := range ops {
			apply(px, op)
			_, newest := px.RetainedLSNs()
			lsnOf = append(lsnOf, newest)
		}
		close(stop)
		wg.Wait()
		for ver := 0; ver <= nOps; ver += 25 {
			checkViewAgainstOracle(t, "retained, after writes", oracle, ver, asOf(lsnOf[ver]))
		}
	})
}

// TestPinnedViewSurvivesCheckpoint: a view a query pins keeps its pages
// through checkpoints. The views before it drain, and a checkpoint
// returns their pages to the allocator; the pinned view is retired past
// a small retention and stays queued. Commits then take every recycled
// page, writing each new node's first image into it, until the file has
// to grow again. The pinned view still answers as its version does.
func TestPinnedViewSurvivesCheckpoint(t *testing.T) {
	const nBase, nOps, pinAt, retention = 140, 400, 20, 2
	base, ops, versions := buildMutationScript(nBase, nOps, 67)
	oracle := newMutOracle(versions)
	px := newMemPaged().build(t, base, buildOptions{maxEntries: 6, gridCellSize: 25, viewRetention: retention})
	defer px.Close()
	ctx := context.Background()
	apply := func(op mutOp) {
		t.Helper()
		if op.insert {
			if err := px.Insert(op.p); err != nil {
				t.Fatal(err)
			}
		} else if found, err := px.Delete(op.p); err != nil || !found {
			t.Fatalf("delete %v = (%v, %v)", op.p, found, err)
		}
	}

	for _, op := range ops[:pinAt] {
		apply(op)
	}
	pinned := px.acquire()
	defer pinned.release()
	k := pinAt
	for ; k < pinAt+4*retention; k++ {
		apply(ops[k])
	}
	if err := px.Sync(); err != nil {
		t.Fatal(err)
	}
	recycled := px.pages.Stats().Frees
	if recycled == 0 {
		t.Fatal("the checkpoint returned no page to the allocator")
	}
	for grown := px.pages.NumPages(); px.pages.NumPages() == grown; k++ {
		if k == nOps {
			t.Fatalf("%d commits after the checkpoint left %d recycled pages unused", nOps-pinAt-4*retention, recycled)
		}
		apply(ops[k])
	}
	checkViewAgainstOracle(t, "pinned across a checkpoint", oracle, pinAt, func(q Query) (Result, error) {
		return px.nwcOnView(ctx, pinned, q, nil)
	})
	got, err := pinned.tree.All()
	if err != nil {
		t.Fatal(err)
	}
	byID := func(a, b Point) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(got, byID)
	want := slices.Clone(versions[pinAt])
	slices.SortFunc(want, byID)
	if !slices.Equal(got, want) {
		t.Errorf("the pinned view holds %d points after %d commits on recycled pages, its version %d", len(got), k-pinAt, len(want))
	}
}

// TestPagedMutationsPatchIWP is the paged-mixed regression in miniature:
// on a page file several times its node cache, insert/delete pairs
// interleaved with NWC* queries never rebuild the IWP index, and a
// query after a mutation misses the cache a bounded number of times —
// not once per page of the tree, which is what a rebuild costs.
func TestPagedMutationsPatchIWP(t *testing.T) {
	pts := testPoints(12000, 71)
	o := buildOptions{
		maxEntries: 50, gridCellSize: 25, bulkLoad: true,
		nodeCache: 48, nodeCacheSet: true,
	}
	px := newMemPaged().build(t, pts, o)
	defer px.Close()
	treePages := len(pts) / o.maxEntries // leaves alone; the bound below is far under it
	height := px.TreeHeight()

	ask := func(i int) {
		t.Helper()
		p := pts[(i*131)%len(pts)]
		q := Query{X: p.X, Y: p.Y, Length: 40, Width: 40, N: 5}
		res, err := px.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		q.Scheme = NewScheme(true, true, true, false) // NWC* without IWP
		rootDown, err := px.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != rootDown.Found || res.Dist != rootDown.Dist {
			t.Fatalf("query %d: with IWP found=%v dist=%g, without found=%v dist=%g", i, res.Found, res.Dist, rootDown.Found, rootDown.Dist)
		}
	}
	for i := 0; i < 20; i++ {
		ask(i) // warm the cache the way a serving index is warm
	}
	before := px.PageStats()
	const pairs = 100
	for i := 0; i < pairs; i++ {
		c := pts[(i*257)%len(pts)]
		p := Point{X: c.X + 0.25, Y: c.Y + 0.25, ID: 1<<40 | uint64(i)}
		if err := px.Insert(p); err != nil {
			t.Fatal(err)
		}
		ask(i)
		if found, err := px.Delete(p); err != nil || !found {
			t.Fatalf("delete %v = (%v, %v)", p, found, err)
		}
		ask(i + pairs)
	}
	after := px.PageStats()

	if px.TreeHeight() != height {
		t.Skipf("tree height moved %d → %d; a full rebuild is then expected", height, px.TreeHeight())
	}
	if n := px.Metrics().IWPRebuilds; n != 0 {
		t.Errorf("IWPRebuilds = %d after %d mutations at constant height, want 0", n, 2*pairs)
	}
	// Each step is one mutation and two queries (NWC* with and without IWP).
	missesPerStep := float64(after.CacheMisses-before.CacheMisses) / (2 * pairs)
	if limit := float64(treePages) / 8; missesPerStep > limit {
		t.Errorf("%.1f page-cache misses per mutate+query step; a tree of over %d pages must not be re-read (limit %.0f)",
			missesPerStep, treePages, limit)
	}
	t.Logf("%.1f page-cache misses per mutate+query step, tree of over %d pages", missesPerStep, treePages)
}
