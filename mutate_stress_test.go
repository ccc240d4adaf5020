package nwcq

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// Mutation stress suite for the atomically published view design: every
// query running concurrently with online Insert/Delete traffic must
// return an answer that is exactly correct for SOME prefix of the
// mutation sequence — a query pins one immutable view, and every view
// is the result of applying the first k mutations to the base set for
// some k. Answers are checked against the package's exhaustive brute
// force oracle per version. Run with -race; the datasets are kept small
// because the oracle is O(N³).

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
	knwc     map[[2]int][]core.Group
}

func newMutOracle(versions [][]Point) *mutOracle {
	return &mutOracle{
		versions: versions,
		nwc:      map[[2]int]core.Result{},
		knwc:     map[[2]int][]core.Group{},
	}
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

func (o *mutOracle) KNWC(qi, ver int, q KQuery) []core.Group {
	o.mu.Lock()
	defer o.mu.Unlock()
	key := [2]int{qi, ver}
	if r, ok := o.knwc[key]; ok {
		return r
	}
	r := core.BruteForceKNWC(o.versions[ver], core.KNWCQuery{
		Query: core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N},
		K:     q.K, M: q.M,
	}, core.MeasureMax)
	o.knwc[key] = r
	return r
}

func nwcAgrees(res Result, want core.Result) bool {
	if res.Found != want.Found {
		return false
	}
	return !res.Found || math.Abs(res.Dist-want.Group.Dist) <= 1e-9
}

func knwcAgrees(groups []Group, want []core.Group) bool {
	if len(groups) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(groups[i].Dist-want[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// TestMutationStressPrefixCorrectness is the tentpole's acceptance
// test: NWC, kNWC, and batch queries under every scheme (including
// IWP) run concurrently with a mutator applying a recorded script of
// inserts and deletes. Each query result must equal the brute-force
// answer over versions[v] for some v in the window of versions the
// query could have pinned.
func TestMutationStressPrefixCorrectness(t *testing.T) {
	base, ops, versions := buildMutationScript(40, 30, 71)
	idx, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newMutOracle(versions)

	queries := []Query{
		{X: 120, Y: 140, Length: 120, Width: 120, N: 2},
		{X: 250, Y: 250, Length: 150, Width: 100, N: 3},
		{X: 330, Y: 80, Length: 100, Width: 160, N: 2},
		{X: 60, Y: 320, Length: 180, Width: 180, N: 4},
	}
	kqueries := []KQuery{
		{Query: Query{X: 200, Y: 180, Length: 140, Width: 140, N: 2}, K: 3, M: 1},
		{Query: Query{X: 300, Y: 300, Length: 160, Width: 120, N: 3}, K: 2, M: 1},
	}
	schemes := []Scheme{SchemeNWC, SchemeNWCPlus, SchemeNWCStar, SchemeIWP}

	// completed counts ops fully applied (published). A query that
	// loads completed=lo before running pinned a view of version ≥ lo;
	// loading hi after it finishes bounds the version by hi+1 (the
	// op that takes completed to hi+1 may have published already).
	var completed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k, op := range ops {
			if op.insert {
				if err := idx.Insert(op.p); err != nil {
					t.Errorf("op %d: insert: %v", k, err)
					return
				}
			} else {
				found, err := idx.Delete(op.p)
				if err != nil {
					t.Errorf("op %d: delete: %v", k, err)
					return
				}
				if !found {
					t.Errorf("op %d: delete(%v) found nothing", k, op.p)
					return
				}
			}
			completed.Store(int64(k + 1))
			time.Sleep(3 * time.Millisecond)
		}
	}()
	isDone := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	versionBounds := func(lo int64) (int, int) {
		hi := int(completed.Load()) + 1
		if hi > len(ops) {
			hi = len(ops)
		}
		return int(lo), hi
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it, stopped := 0, false; !stopped; it++ {
				stopped = isDone()
				qi := (w + it) % len(queries)
				q := queries[qi]
				q.Scheme = schemes[(w+it)%len(schemes)]
				lo0 := completed.Load()
				res, err := idx.NWC(q)
				if err != nil {
					t.Errorf("nwc worker %d: %v", w, err)
					return
				}
				lo, hi := versionBounds(lo0)
				ok := false
				for v := lo; v <= hi && !ok; v++ {
					ok = nwcAgrees(res, oracle.NWC(qi, v, queries[qi]))
				}
				if !ok {
					t.Errorf("nwc worker %d: query %d scheme %v: found=%v dist=%g matches no version in [%d,%d]",
						w, qi, q.Scheme, res.Found, res.Dist, lo, hi)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it, stopped := 0, false; !stopped; it++ {
			stopped = isDone()
			qi := it % len(kqueries)
			q := kqueries[qi]
			q.Scheme = schemes[it%len(schemes)]
			lo0 := completed.Load()
			res, err := idx.KNWC(q)
			if err != nil {
				t.Errorf("knwc worker: %v", err)
				return
			}
			groups := res.Groups
			lo, hi := versionBounds(lo0)
			ok := false
			for v := lo; v <= hi && !ok; v++ {
				ok = knwcAgrees(groups, oracle.KNWC(qi, v, kqueries[qi]))
			}
			if !ok {
				t.Errorf("knwc worker: query %d scheme %v: %d groups match no version in [%d,%d]",
					qi, q.Scheme, len(groups), lo, hi)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]Query, len(queries))
		copy(batch, queries)
		for i := range batch {
			batch[i].Scheme = schemes[i%len(schemes)]
		}
		for stopped := false; !stopped; {
			stopped = isDone()
			lo0 := completed.Load()
			results, err := idx.NWCBatch(batch, BatchOptions{Parallelism: 4})
			if err != nil {
				t.Errorf("batch worker: %v", err)
				return
			}
			lo, hi := versionBounds(lo0)
			for qi, res := range results {
				ok := false
				for v := lo; v <= hi && !ok; v++ {
					ok = nwcAgrees(res, oracle.NWC(qi, v, queries[qi]))
				}
				if !ok {
					t.Errorf("batch worker: query %d: found=%v dist=%g matches no version in [%d,%d]",
						qi, res.Found, res.Dist, lo, hi)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Quiesced: the index must be exactly the final version.
	final := len(versions) - 1
	if idx.Len() != len(versions[final]) {
		t.Fatalf("final Len = %d, want %d", idx.Len(), len(versions[final]))
	}
	for qi, q := range queries {
		res, err := idx.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if !nwcAgrees(res, oracle.NWC(qi, final, q)) {
			t.Errorf("final state: query %d disagrees with brute force", qi)
		}
	}
}

// TestGridRebuildPublishRace is the regression guard for the pre-view
// grid swap: an out-of-space Insert used to overwrite the index's grid
// and engine fields in place, racing with concurrent DEP grid probes
// (and failing under -race). Views publish the (tree, grid, engine)
// triple with one atomic pointer swap, so this workload must run clean.
func TestGridRebuildPublishRace(t *testing.T) {
	pts := testPoints(600, 31)
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	schemes := []Scheme{SchemeNWCStar, SchemeIWP}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{
					X: float64(100 + (g*271+i*97)%800), Y: float64(100 + (g*131+i*53)%800),
					Length: 80, Width: 80, N: 4,
					Scheme: schemes[i%len(schemes)],
				}
				if _, err := idx.NWC(q); err != nil {
					t.Errorf("query worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	// Every insert lands outside the previous space (beyond its 12.5%
	// slack), forcing a grid rebuild per iteration.
	for i := 0; i < 25; i++ {
		far := Point{X: 2000 + float64(i)*800, Y: 2000 + float64(i)*800, ID: uint64(1_000_000 + i)}
		if err := idx.Insert(far); err != nil {
			t.Fatal(err)
		}
		found, err := idx.Delete(far)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("iteration %d: far point not found for delete", i)
		}
	}
	close(stop)
	wg.Wait()
	if idx.Len() != 600 {
		t.Fatalf("Len = %d after paired insert/delete, want 600", idx.Len())
	}
}

// TestViewPinZeroAlloc pins the read path's fixed cost: acquiring a view
// — which carries the one engine every scheme runs on — and releasing it
// must not allocate at all. This is the deterministic form of the
// BenchmarkNWCUnderMutation guarantee ("0 extra allocs/op on the read
// path"), and it holds on a freshly published view as on the first one:
// no view has IWP state left to build.
func TestViewPinZeroAlloc(t *testing.T) {
	idx, err := Build(testPoints(200, 33))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(Point{X: 1, Y: 1, ID: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v := idx.acquire()
		if v.eng.IWPIndex() != v.iwp || v.iwp == nil {
			t.Error("published view has no IWP index")
		}
		v.release()
	})
	if allocs != 0 {
		t.Errorf("view pin allocates %g per query; want 0", allocs)
	}
}
