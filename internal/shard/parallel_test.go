package shard

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
	wpool "nwcq/internal/pool"
)

// TestParallelMatchesSequentialAllSchemes is the parallel-execution
// acceptance test: on a boundary-straddling dataset, the parallel
// scatter (cooperative shared bound, claim-time pruning) must produce
// exactly the sequential router's answer — which in turn must equal the
// brute-force oracle — for all 16 scheme combinations, all four
// measures, NWC and kNWC.
func TestParallelMatchesSequentialAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := straddlePoints(rng, 90)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

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

				sh.SetParallelism(1)
				seq, err := sh.NWC(q)
				if err != nil {
					t.Fatalf("q%d %s sequential: %v", qi, label, err)
				}
				sh.SetParallelism(4)
				par, err := sh.NWC(q)
				if err != nil {
					t.Fatalf("q%d %s parallel: %v", qi, label, err)
				}
				nwcAgree(t, "par/"+label, par, seq)
				if par.Found != oracle.Found ||
					(par.Found && math.Abs(par.Dist-oracle.Group.Dist) > distEps) {
					t.Fatalf("q%d %s: parallel dist %v/%g, oracle %v/%g",
						qi, label, par.Found, par.Dist, oracle.Found, oracle.Group.Dist)
				}

				kq := nwcq.KQuery{Query: q, K: 3, M: 1}
				kpar, err := sh.KNWC(kq)
				if err != nil {
					t.Fatalf("q%d %s parallel kNWC: %v", qi, label, err)
				}
				knwcAgree(t, "kpar/"+label, kpar, kOracle)
			}
		}
	}

	// Entry-point equivalence: at either width, the same query through
	// every public name is one routed execution — same answer, recorded
	// exactly once. Node visits are compared at width 1 only: under the
	// shared bound, how much a traversal prunes depends on when the other
	// shards' improvements land.
	ctx := context.Background()
	for _, width := range []int{1, 4} {
		sh.SetParallelism(width)
		// counted runs one entry point and checks the router recorded
		// exactly one more query of kind.
		counted := func(label, kind string, call func()) {
			t.Helper()
			before := sh.Metrics().Queries[kind]
			call()
			after := sh.Metrics().Queries[kind]
			if after.Count != before.Count+1 || after.Errors != before.Errors {
				t.Fatalf("width %d %s: %s count %d → %d, errors %d → %d; want one more, no errors",
					width, label, kind, before.Count, after.Count, before.Errors, after.Errors)
			}
		}
		for qi, qq := range queries {
			q := nwcq.Query{X: qq.x, Y: qq.y, Length: qq.l, Width: qq.w, N: qq.n}
			ref, err := sh.NWCCtx(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			same := func(label string, got nwcq.Result) {
				t.Helper()
				if got.Found != ref.Found || got.Dist != ref.Dist || !reflect.DeepEqual(got.Objects, ref.Objects) ||
					(width == 1 && got.Stats.NodeVisits != ref.Stats.NodeVisits) {
					t.Fatalf("width %d q%d %s:\n got %+v\nwant %+v", width, qi, label, got, ref)
				}
			}
			counted("NWCCtx", "nwc", func() {
				got, err := sh.NWCCtx(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				same("NWCCtx", got)
			})
			counted("ExplainNWC", "nwc", func() {
				got, tr, err := sh.ExplainNWC(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				same("ExplainNWC", got)
				if tr.NodeVisits != got.Stats.NodeVisits {
					t.Fatalf("width %d q%d: trace visits %d, result %d", width, qi, tr.NodeVisits, got.Stats.NodeVisits)
				}
			})
			counted("NWCBatch", "nwc", func() {
				got, err := sh.NWCBatchCtx(ctx, []nwcq.Query{q}, nwcq.BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				same("NWCBatch", got[0])
			})
			counted("Subscribe", "nwc", func() {
				sub, err := sh.Subscribe(q)
				if err != nil {
					t.Fatal(err)
				}
				init, err := sub.Next(ctx, nil)
				sub.Close()
				if err != nil || init.Kind != nwcq.SubInit {
					t.Fatalf("width %d q%d init frame: %+v, %v", width, qi, init, err)
				}
				same("Subscribe init", init.Result)
			})

			kq := nwcq.KQuery{Query: q, K: 3, M: 1}
			kref, err := sh.KNWCCtx(ctx, kq)
			if err != nil {
				t.Fatal(err)
			}
			ksame := func(label string, got nwcq.KResult) {
				t.Helper()
				if got.Found != kref.Found || !reflect.DeepEqual(got.Groups, kref.Groups) ||
					(width == 1 && got.Stats.NodeVisits != kref.Stats.NodeVisits) {
					t.Fatalf("width %d q%d %s:\n got %+v\nwant %+v", width, qi, label, got, kref)
				}
			}
			counted("KNWCCtx", "knwc", func() {
				got, err := sh.KNWCCtx(ctx, kq)
				if err != nil {
					t.Fatal(err)
				}
				ksame("KNWCCtx", got)
			})
			counted("ExplainKNWC", "knwc", func() {
				got, _, err := sh.ExplainKNWC(ctx, kq)
				if err != nil {
					t.Fatal(err)
				}
				ksame("ExplainKNWC", got)
			})
			counted("KNWCBatch", "knwc", func() {
				got, err := sh.KNWCBatchCtx(ctx, []nwcq.KQuery{kq}, nwcq.BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ksame("KNWCBatch", got[0])
			})
		}
	}
}

// TestParallelBoundTightenings verifies the cooperative-bound plumbing
// actually fires: on clustered data with parallel workers, in-flight
// shard traversals must publish improvements to the shared cell.
func TestParallelBoundTightenings(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := straddlePoints(rng, 200)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i := 0; i < 10; i++ {
		q := nwcq.Query{X: 40 + rng.Float64()*20, Y: 40 + rng.Float64()*20, Length: 8, Width: 8, N: 3}
		if _, err := sh.NWC(q); err != nil {
			t.Fatal(err)
		}
	}
	if rs := sh.RouterStats(); rs.BoundTightenings == 0 {
		t.Fatalf("parallel scatter never tightened the shared bound: %+v", rs)
	}
}

// TestScatterHomeRunsAlone: the home shard runs first and alone at every
// width, so the bound it seeds prunes siblings it excludes before any of
// them starts. At Parallelism 4, 200 NWC and kNWC queries well inside
// one shard each query exactly that shard and prune the other three.
func TestScatterHomeRunsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := make([]nwcq.Point, 4000)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: uint64(i + 1)}
	}
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i := 0; i < 200; i++ {
		// 15 or more from every seam and edge: each home shard holds a
		// group within a few units of q.
		q := nwcq.Query{X: 15 + rng.Float64()*20 + float64(i%2)*50, Y: 15 + rng.Float64()*20 + float64(i/2%2)*50, Length: 4, Width: 4, N: 3}
		before := sh.RouterStats()
		if i%4 < 2 {
			_, err = sh.NWC(q)
		} else {
			_, err = sh.KNWC(nwcq.KQuery{Query: q, K: 2, M: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		after := sh.RouterStats()
		if queried, pruned := after.ShardQueries-before.ShardQueries, after.ShardsPruned-before.ShardsPruned; queried != 1 || pruned != 3 {
			t.Fatalf("query %d at (%.1f, %.1f) queried %d shards and pruned %d, want 1 and 3", i, q.X, q.Y, queried, pruned)
		}
	}
}

// TestSingleShardAutomaticFallback verifies that a single-shard router
// takes the sequential path no matter how wide the configured pool is:
// the parallel machinery (shared cell, workers) must not engage, so its
// tightenings counter stays zero.
func TestSingleShardAutomaticFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := straddlePoints(rng, 80)
	sh, err := NewSharded(pts, Options{Shards: 1, Space: space, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i := 0; i < 5; i++ {
		if _, err := sh.NWC(nwcq.Query{X: 50, Y: 50, Length: 10, Width: 10, N: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if rs := sh.RouterStats(); rs.BoundTightenings != 0 {
		t.Fatalf("single-shard router engaged the parallel path: %+v", rs)
	}
}

// TestPoolSequentialPathZeroAllocs pins the fallback's cost: with one
// worker the shared pool is a plain loop — no goroutines, no locks, no
// allocations.
func TestPoolSequentialPathZeroAllocs(t *testing.T) {
	n := 0
	fn := func(int) error { n++; return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if err := wpool.Each(64, 1, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sequential pool path allocated %.1f per call, want 0", allocs)
	}
}

// TestParallelExplainTrace exercises the explain collector under
// concurrent scatter workers (-race) and checks the merged trace still
// carries every shard's phases.
func TestParallelExplainTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := straddlePoints(rng, 120)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	res, tr, err := sh.ExplainNWC(context.Background(), nwcq.Query{X: 50, Y: 50, Length: 8, Width: 8, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no group found on straddle data")
	}
	if tr == nil || len(tr.Phases) == 0 {
		t.Fatalf("empty merged trace: %+v", tr)
	}
	// Phases must be shard-ordered and stable under parallel scatter.
	last := ""
	for _, p := range tr.Phases {
		border := strings.HasPrefix(p.Phase, "border-") // the router's own phases, after every shard's
		if p.Phase < last && !border {
			t.Fatalf("phases out of shard order: %q after %q", p.Phase, last)
		}
		if !border {
			last = p.Phase[:7] // "shardN:" prefix
		}
	}
}

// TestRouterCacheCoalescingUnderMutations is the router-level -race
// stress: concurrent identical queries coalescing on the result cache,
// interleaved with inserts that publish new shard views. After the last
// publish, a fresh query must observe the inserted group — a stale hit
// across the generation sum would make it invisible.
func TestRouterCacheCoalescingUnderMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := straddlePoints(rng, 150)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Parallelism: 4, ResultCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()

	// A tight query on an (initially empty) corner of shard 3.
	q := nwcq.Query{X: 97, Y: 97, Length: 2, Width: 2, N: 2}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sh.NWCCtx(ctx, q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		if err := sh.Insert(nwcq.Point{X: 97, Y: 97, ID: 500001}); err != nil {
			t.Error(err)
			return
		}
		if err := sh.Insert(nwcq.Point{X: 97.5, Y: 97.5, ID: 500002}); err != nil {
			t.Error(err)
			return
		}
		// Churn more generations while readers hammer the cache.
		for i := 0; i < 100; i++ {
			p := nwcq.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: uint64(510000 + i)}
			if err := sh.Insert(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	res, err := sh.NWCCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("inserted group invisible after publishes (stale router cache?)")
	}
	if sh.nwcCache == nil {
		t.Fatal("router cache not constructed")
	}
	if st := sh.nwcCache.Stats().Add(sh.knwcCache.Stats()); st.Hits+st.Misses == 0 {
		t.Fatalf("cache never consulted: %+v", st)
	}
}

// TestDefaultSchemeSharesCacheEntry: the zero Scheme is NWC*, so a query
// that omits the scheme and the same query naming NWC* are one result
// cache key, on an index and on a router.
func TestDefaultSchemeSharesCacheEntry(t *testing.T) {
	pts := straddlePoints(rand.New(rand.NewSource(77)), 100)
	idx, err := nwcq.Build(pts, nwcq.WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, ResultCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, b := range []interface {
		NWC(nwcq.Query) (nwcq.Result, error)
		Metrics() nwcq.MetricsSnapshot
	}{idx, sh} {
		q := nwcq.Query{X: 50, Y: 50, Length: 8, Width: 8, N: 3}
		for _, s := range []nwcq.Scheme{nwcq.SchemeDefault, nwcq.SchemeNWCStar} {
			q.Scheme = s
			if _, err := b.NWC(q); err != nil {
				t.Fatal(err)
			}
		}
		if rc := b.Metrics().ResultCache; rc == nil || rc.Hits != 1 || rc.Misses != 1 {
			t.Errorf("%T: cache %+v, want the NWC* query a hit on the default's entry", b, rc)
		}
	}
}

// TestRouterCacheHitIsExact verifies a router cache hit returns the
// identical answer and shows up in the metrics snapshot.
func TestRouterCacheHitIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	pts := straddlePoints(rng, 100)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, ResultCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	q := nwcq.Query{X: 50, Y: 50, Length: 8, Width: 8, N: 3}
	first, err := sh.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sh.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	nwcAgree(t, "cache-hit", second, first)

	kq := nwcq.KQuery{Query: q, K: 2, M: 1}
	kfirst, err := sh.KNWC(kq)
	if err != nil {
		t.Fatal(err)
	}
	ksecond, err := sh.KNWC(kq)
	if err != nil {
		t.Fatal(err)
	}
	if len(ksecond.Groups) != len(kfirst.Groups) {
		t.Fatalf("kNWC hit diverged: %d vs %d groups", len(ksecond.Groups), len(kfirst.Groups))
	}

	snap := sh.Metrics()
	if snap.ResultCache == nil || snap.ResultCache.Hits == 0 {
		t.Fatalf("metrics missing cache hits: %+v", snap.ResultCache)
	}
	if snap.Router == nil || snap.Router.Parallelism < 1 {
		t.Fatalf("metrics missing parallelism: %+v", snap.Router)
	}
}

// TestParallelBatchMatchesSequentialBatch runs the routed batch forms
// at both widths and cross-checks them.
func TestParallelBatchMatchesSequentialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := straddlePoints(rng, 120)
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	queries := make([]nwcq.Query, 24)
	for i := range queries {
		queries[i] = nwcq.Query{
			X: rng.Float64() * 100, Y: rng.Float64() * 100,
			Length: 5 + rng.Float64()*8, Width: 5 + rng.Float64()*8,
			N: 2 + rng.Intn(3),
		}
	}
	seq, err := sh.NWCBatch(queries, nwcq.BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sh.NWCBatch(queries, nwcq.BatchOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if par[i].Found != seq[i].Found ||
			(seq[i].Found && math.Abs(par[i].Dist-seq[i].Dist) > distEps) {
			t.Fatalf("batch query %d: parallel %+v, sequential %+v", i, par[i], seq[i])
		}
	}
}

// TestParallelKNWCTies: on lattices, where groups tie in distance by the
// dozen — under the max measure every two sets sharing their farthest member
// — the scatter's merge of the pooled chains must not depend on which
// worker's chain came first: a kNWC deep inside one shard (the fast path,
// which returns that merge) is that shard's own chain, group for group, at
// any width, every time.
func TestParallelKNWCTies(t *testing.T) {
	var pts []nwcq.Point
	for _, c := range [][2]float64{{20, 20}, {80, 20}, {20, 80}, {80, 80}} {
		for i := -4; i <= 4; i++ {
			for j := -4; j <= 4; j++ {
				pts = append(pts, nwcq.Point{X: c[0] + float64(2*i), Y: c[1] + float64(2*j), ID: uint64(len(pts) + 1)})
			}
		}
	}
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, m := range allMeasures {
		kq := nwcq.KQuery{Query: nwcq.Query{X: 20, Y: 20, Length: 2, Width: 2, N: 2, Measure: m}, K: 8, M: 1}
		want, err := sh.shards[sh.shardFor(kq.X, kq.Y)].KNWC(kq)
		if err != nil {
			t.Fatal(err)
		}
		ties := 0
		for i := 1; i < len(want.Groups); i++ {
			if want.Groups[i].Dist == want.Groups[i-1].Dist {
				ties++
			}
		}
		if len(want.Groups) != kq.K || ties < 4 {
			t.Fatalf("%s: the home shard's chain has %d groups and %d ties, want %d and a handful", m, len(want.Groups), ties, kq.K)
		}
		for round := 0; round < 10; round++ {
			sh.SetParallelism(1 + 3*(round%2))
			before := sh.RouterStats().BorderFetches
			got, err := sh.KNWC(kq)
			if err != nil {
				t.Fatal(err)
			}
			if sh.RouterStats().BorderFetches != before {
				t.Fatalf("%s: a border fetch ran: not the fast path", m)
			}
			if !reflect.DeepEqual(got.Groups, want.Groups) {
				t.Fatalf("%s round %d:\n got %+v\nwant %+v", m, round, got.Groups, want.Groups)
			}
		}
	}
}

// TestBackendsAnswerAlike: the single index and the router answer every
// query with the same groups — objects, distance and window — at every
// width and every time (DESIGN.md §2: the least group in one order, its
// window its objects'). Two datasets: TestParallelKNWCTies' lattices, where
// sets tie by the dozen under every measure, queried inside a cluster and
// on the seams 100 times per width (10 under the race detector, which CI
// runs twenty times); and 20,000 uniform points at the
// benchmark's uniform-read density (a side of 3,162, l = w = 60, n = 8,
// k = 3, m = 1, the max measure) under 2,000 queries at width 4 (200 under
// -short or the race detector), where the parent commit's answers differed
// in 3 NWC object sets, 44 NWC windows, 34 kNWC answers' object sets and
// 269 kNWC answers' windows. Three kNWC answers still differ, queries 462,
// 1,665 and 1,968: the index's misses a group after its k-th distance rose
// (ROADMAP 16(a), open), which the router's certification finds. There the
// router's must be the oracle's on the points near q, and the test pins
// those three.
func TestBackendsAnswerAlike(t *testing.T) {
	// compare reports whether the index's kNWC answer misses a group the
	// router's has (16(a)); any other difference fails the test.
	compare := func(t *testing.T, single *nwcq.Index, sh *Sharded, pts []nwcq.Point, q nwcq.Query, kq nwcq.KQuery) (defect bool) {
		t.Helper()
		want, err := single.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || !reflect.DeepEqual(got.Group, want.Group) {
			t.Fatalf("NWC %+v: router %+v, index %+v", q, got.Group, want.Group)
		}
		kwant, err := single.KNWC(kq)
		if err != nil {
			t.Fatal(err)
		}
		kgot, err := sh.KNWC(kq)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(kgot.Groups, kwant.Groups) {
			return false
		}
		// Every group within d of q, and every window that yields one, lies
		// in box(q, d+l, d+w): the oracle over those points is the answer.
		d := 0.0
		for _, g := range slices.Concat(kgot.Groups, kwant.Groups) {
			d = max(d, g.Dist)
		}
		var near []geom.Point
		for _, p := range pts {
			if math.Abs(p.X-q.X) <= d+q.Length && math.Abs(p.Y-q.Y) <= d+q.Width {
				near = append(near, p)
			}
		}
		if pts == nil || !reflect.DeepEqual(kgot.Groups, core.BruteForceKNWC(near, core.KNWCQuery{Query: coreQuery(q), K: kq.K, M: kq.M}, core.MeasureMax)) {
			t.Fatalf("kNWC %+v: router %+v, index %+v", kq, kgot.Groups, kwant.Groups)
		}
		return true
	}
	t.Run("lattices", func(t *testing.T) {
		var pts []nwcq.Point
		for _, c := range [][2]float64{{20, 20}, {80, 20}, {20, 80}, {80, 80}, {50, 50}} {
			for i := -4; i <= 4; i++ {
				for j := -4; j <= 4; j++ {
					pts = append(pts, nwcq.Point{X: c[0] + float64(2*i), Y: c[1] + float64(2*j), ID: uint64(len(pts) + 1)})
				}
			}
		}
		single, sh := buildBoth(t, pts, 4)
		rounds := 100
		if raceEnabled {
			rounds = 10 // CI runs it twenty times
		}
		for _, width := range []int{1, 4} {
			sh.SetParallelism(width)
			for round := 0; round < rounds; round++ {
				for _, m := range allMeasures {
					for _, c := range [][2]float64{{20, 20}, {50, 50}, {49, 51}} {
						q := nwcq.Query{X: c[0], Y: c[1], Length: 2, Width: 2, N: 2, Measure: m}
						compare(t, single, sh, nil, q, nwcq.KQuery{Query: q, K: 8, M: 1})
					}
				}
			}
		}
	})
	t.Run("uniform", func(t *testing.T) {
		const n, side = 20000, 3162.2776601683795
		rng := rand.New(rand.NewSource(101))
		pts := make([]nwcq.Point, n)
		for i := range pts {
			pts[i] = nwcq.Point{X: rng.Float64() * side, Y: rng.Float64() * side, ID: uint64(i + 1)}
		}
		single, err := nwcq.Build(pts, nwcq.WithBulkLoad())
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewSharded(pts, Options{Shards: 4, Space: nwcq.Rect{MaxX: side, MaxY: side}, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		queries := 2000
		if testing.Short() || raceEnabled {
			queries = 200
		}
		var defects []int
		for i := 0; i < queries; i++ {
			q := nwcq.Query{X: rng.Float64() * side, Y: rng.Float64() * side, Length: 60, Width: 60, N: 8}
			if compare(t, single, sh, pts, q, nwcq.KQuery{Query: q, K: 3, M: 1}) {
				defects = append(defects, i)
			}
		}
		// The three kNWC answers 16(a) is known to change here, no more.
		want := slices.DeleteFunc([]int{462, 1665, 1968}, func(i int) bool { return i >= queries })
		if !slices.Equal(defects, want) {
			t.Fatalf("the index misses a group in kNWC answers %v of %d, want %v (ROADMAP 16(a))", defects, queries, want)
		}
	})
}
