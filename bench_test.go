package nwcq

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 5), plus micro-benchmarks of the substrates.
//
// The per-figure benchmarks regenerate the figure's rows at a reduced
// scale (BENCH_SCALE of the paper's cardinality, windows rescaled to
// preserve objects-per-window; see internal/harness) and report the
// averaged node-visit metric alongside wall time. Run the full-scale
// versions with cmd/nwcbench -full.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwcq/internal/core"
	"nwcq/internal/datagen"
	"nwcq/internal/geom"
	"nwcq/internal/harness"
	"nwcq/internal/pager"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// benchOptions scales every figure benchmark: 2% of the paper's
// cardinality and 3 query points keep the whole suite to minutes.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Scale = 0.02
	o.Queries = 3
	return o
}

// reportTable turns a harness table's numeric cells into a benchmark
// metric (the grand mean of all I/O cells) so regressions are visible.
func reportTable(b *testing.B, tables ...*harness.Table) {
	b.Helper()
	sum, cnt := 0.0, 0
	for _, t := range tables {
		for _, row := range t.Rows {
			for _, cell := range row[1:] {
				if v, ok := parseTableCell(cell); ok {
					sum += v
					cnt++
				}
			}
		}
	}
	if cnt > 0 {
		b.ReportMetric(sum/float64(cnt), "nodevisits/query")
	}
}

// parseTableCell parses a harness table cell into a float, honouring
// the K/k (×1e3) and M (×1e6) magnitude suffixes the tables emit.
// Non-numeric cells (dataset names, scheme labels, "-" placeholders)
// report ok=false and are skipped by the caller rather than silently
// treated as parse noise.
func parseTableCell(cell string) (v float64, ok bool) {
	s := strings.TrimSpace(cell)
	if s == "" || s == "-" {
		return 0, false
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1e6
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult = 1e3
		s = s[:len(s)-1]
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f * mult, true
}

// BenchmarkTable2Datasets regenerates Table 2 (dataset generation and
// summary).
func BenchmarkTable2Datasets(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig09GridSize regenerates Figure 9: DEP's I/O cost across
// density-grid cell sizes 25–400 on the three datasets.
func BenchmarkFig09GridSize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFig10Distribution regenerates Figure 10: all seven schemes
// across Gaussian standard deviations 2000 → 1000.
func BenchmarkFig10Distribution(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFig11SearchedObjects regenerates Figure 11(a–c): all schemes
// across n = 8 … 128 per dataset.
func BenchmarkFig11SearchedObjects(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		ts, err := harness.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, ts...)
	}
}

// BenchmarkFig12WindowSize regenerates Figure 12(a–c): all schemes
// across window sizes 8 … 128 per dataset.
func BenchmarkFig12WindowSize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		ts, err := harness.Fig12(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, ts...)
	}
}

// BenchmarkFig13K regenerates Figure 13: kNWC+ vs kNWC* across k on the
// CA-like and NY-like datasets.
func BenchmarkFig13K(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig13(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFig14M regenerates Figure 14: kNWC+ vs kNWC* across m on the
// CA-like and NY-like datasets.
func BenchmarkFig14M(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkStorageOverheads regenerates the Section 5.2 storage table
// (density-grid bytes, backward/overlapping pointer counts).
func BenchmarkStorageOverheads(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.StorageOverheads(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkCostModel regenerates the Section 4 analytic-vs-measured
// comparison.
func BenchmarkCostModel(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.ModelComparison(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks: per-query and per-operation costs of the substrates.
// ---------------------------------------------------------------------

func benchEnv(b *testing.B, pts []geom.Point) *harness.Env {
	b.Helper()
	cfg := harness.DefaultConfig()
	cfg.BulkLoad = true
	env, err := harness.Build("bench", pts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkNWCQuery measures one NWC query per iteration for each
// scheme on a 10k-point clustered dataset.
func BenchmarkNWCQuery(b *testing.B) {
	pts := datagen.NYLikeN(10000, 1)
	env := benchEnv(b, pts)
	queries := harness.QueryPoints(64, 5)
	for _, scheme := range []core.Scheme{core.SchemeNWC, core.SchemeNWCPlus, core.SchemeNWCStar} {
		b.Run(scheme.String(), func(b *testing.B) {
			env.Tree.ResetVisits()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				_, _, err := env.Engine.NWC(context.Background(), core.Query{Q: q, L: 60, W: 60, N: 8}, scheme, core.MeasureMax, core.Exec{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.Tree.Visits())/float64(b.N), "nodevisits/op")
		})
	}
}

// BenchmarkNWCDense measures one NWC* query per iteration inside a
// Gaussian cluster at three densities — about 11, 46 and 183 objects
// per 60 × 60 window at the centre — the regime where window
// verification, not traversal, sets the cost. allocs/op is the number
// to watch: a query materialises one group per improvement of its
// bound, so it stays in the tens whatever the density.
func BenchmarkNWCDense(b *testing.B) {
	for _, sigma := range []float64{1000, 500, 250} {
		pts := datagen.Gaussian(20000, 5000, sigma, 1)
		env := benchEnv(b, pts)
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			env.Tree.ResetVisits()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Query centres walk a 5 × 5 grid within half a σ of the mean.
				q := geom.Point{
					X: 5000 + float64(i%5-2)*sigma/4,
					Y: 5000 + float64(i/5%5-2)*sigma/4,
				}
				_, _, err := env.Engine.NWC(context.Background(), core.Query{Q: q, L: 60, W: 60, N: 8}, core.SchemeNWCStar, core.MeasureMax, core.Exec{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.Tree.Visits())/float64(b.N), "nodevisits/op")
		})
	}
}

// BenchmarkNWCUnpruned measures the query node visits say nothing about:
// under plain NWC or IWP alone no bound stops the traversal, each of the
// 40,000 uniform points is an anchor (72 candidates a region), and one
// the window memo serves reads no node but scans a band of the memo.
// ns/op of "shared" against "per-anchor" is what sized core's memoSpan
// (DESIGN.md §18): sharing must not cost such a query time.
func BenchmarkNWCUnpruned(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 40000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: uint64(i)}
	}
	env := benchEnv(b, pts)
	for _, scheme := range []core.Scheme{core.SchemeNWC, core.SchemeIWP} {
		for _, perAnchor := range []bool{false, true} {
			name := scheme.String() + "/shared"
			if perAnchor {
				name = scheme.String() + "/per-anchor"
			}
			b.Run(name, func(b *testing.B) {
				env.Tree.ResetVisits()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := geom.Point{X: 5000 + float64(i%3)*100, Y: 5000}
					_, _, err := env.Engine.NWC(context.Background(), core.Query{Q: q, L: 300, W: 300, N: 4}, scheme, core.MeasureMax, core.Exec{Paper: perAnchor})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(env.Tree.Visits())/float64(b.N), "nodevisits/op")
			})
		}
	}
}

// benchTraceIndex builds the public-API index and query list shared by
// the trace-overhead benchmarks.
func benchTraceIndex(b *testing.B) (*Index, []geom.Point) {
	b.Helper()
	raw := datagen.NYLikeN(10000, 1)
	pts := make([]Point, len(raw))
	for i, p := range raw {
		pts[i] = Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		b.Fatal(err)
	}
	return idx, harness.QueryPoints(64, 5)
}

// BenchmarkNWCTraceOff measures the ordinary (untraced) NWC query
// through the public API. The instrumentation added for tracing is a
// nil-check branch per point, so ns/op and allocs/op here must match
// the pre-tracing numbers — compare against BenchmarkNWCTraceOn for
// the price of a recorder.
func BenchmarkNWCTraceOff(b *testing.B) {
	idx, queries := benchTraceIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := idx.NWC(Query{X: q.X, Y: q.Y, Length: 60, Width: 60, N: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNWCTraceOn measures the same query with full tracing via
// ExplainNWC: phase spans, pruning counters and the trace assembly.
func BenchmarkNWCTraceOn(b *testing.B) {
	idx, queries := benchTraceIndex(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := idx.ExplainNWC(ctx, Query{X: q.X, Y: q.Y, Length: 60, Width: 60, N: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNWCUnderMutation guards the view design's zero-cost read
// path: NWC throughput with a continuous background mutator (paced
// insert/delete pairs, each publishing a new version) must match the
// static-index sub-benchmark in both ns/op and allocs/op — compare the
// two sub-benchmarks, and both against BENCH_baseline.json. The view
// pin is one atomic load plus one CAS and every view is published with
// its engine and IWP index in place (iwprebuilds/op is 0), so queries
// pay nothing for mutability; TestViewPinZeroAlloc asserts the same
// property deterministically.
func BenchmarkNWCUnderMutation(b *testing.B) {
	raw := datagen.NYLikeN(10000, 1)
	pts := make([]Point, len(raw))
	for i, p := range raw {
		pts[i] = Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	queries := harness.QueryPoints(64, 5)
	run := func(b *testing.B, mutate bool) {
		idx, err := Build(pts, WithBulkLoad())
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var mwg sync.WaitGroup
		var pairs atomic.Int64
		if mutate {
			mwg.Add(1)
			go func() {
				defer mwg.Done()
				rng := rand.New(rand.NewSource(77))
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					p := pts[rng.Intn(len(pts))]
					p.ID = 1<<40 + i
					if err := idx.Insert(p); err != nil {
						b.Error(err)
						return
					}
					if _, err := idx.Delete(p); err != nil {
						b.Error(err)
						return
					}
					pairs.Add(1)
					time.Sleep(5 * time.Millisecond)
				}
			}()
		}
		b.ReportAllocs()
		start := make(chan struct{})
		var next atomic.Int64
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					q := queries[int(i)%len(queries)]
					if _, err := idx.NWC(Query{X: q.X, Y: q.Y, Length: 60, Width: 60, N: 8}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		b.ResetTimer()
		close(start)
		wg.Wait()
		b.StopTimer()
		close(stop)
		mwg.Wait()
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
		if mutate {
			// Versions published while the clock ran: allocs/op here
			// includes the mutator's own copy-on-write work (a real
			// mutation costs memory); the READ path's share is zero.
			b.ReportMetric(float64(pairs.Load())/float64(b.N), "mutations/op")
			// Every publish patches the IWP index; none of these
			// mutations changes the tree's height, so none rebuilds it.
			b.ReportMetric(float64(idx.Metrics().IWPRebuilds)/float64(b.N), "iwprebuilds/op")
		}
	}
	b.Run("static", func(b *testing.B) { run(b, false) })
	b.Run("mutating", func(b *testing.B) { run(b, true) })
}

// BenchmarkKNWCQuery measures one kNWC query per iteration.
func BenchmarkKNWCQuery(b *testing.B) {
	pts := datagen.NYLikeN(10000, 2)
	env := benchEnv(b, pts)
	queries := harness.QueryPoints(64, 6)
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				_, _, err := env.Engine.KNWC(context.Background(), core.KNWCQuery{
					Query: core.Query{Q: q, L: 60, W: 60, N: 8}, K: k, M: 2,
				}, core.SchemeNWCStar, core.MeasureMax, core.Exec{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNWCServing measures one kNWC as the benchmark's workloads send
// it — l = w = 60, n = 8, k = 3, m = 1, NWC*, MeasureMax, the serving
// execution — on that benchmark's 200k uniform points and on the NY-like
// set of BenchmarkKNWCQuery, and reports beside ns, B and allocs what the
// query paid for: objects popped, window queries, windows offered to the
// pool and groups that entered it, per op, counted on a second, traced
// pass over the same queries.
func BenchmarkKNWCServing(b *testing.B) {
	for _, set := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform-200k", datagen.Uniform(200000, 101)},
		{"ny-like-10k", datagen.NYLikeN(10000, 2)},
	} {
		env := benchEnv(b, set.pts)
		queries := harness.QueryPoints(64, 6)
		run := func(q geom.Point, rec *trace.Recorder) core.Stats {
			_, st, err := env.Engine.KNWC(context.Background(), core.KNWCQuery{
				Query: core.Query{Q: q, L: 60, W: 60, N: 8}, K: 3, M: 1,
			}, core.SchemeNWCStar, core.MeasureMax, core.Exec{Rec: rec})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(queries[i%len(queries)], nil)
			}
			b.StopTimer()
			var popped, fetched, offered, entered float64
			for _, q := range queries {
				rec := trace.New()
				st := run(q, rec)
				c := rec.Counters()
				popped, fetched = popped+float64(st.ObjectsProcessed), fetched+float64(st.WindowQueries)
				offered, entered = offered+float64(c[trace.CtrDedupOffered]), entered+float64(c[trace.CtrDedupAccepted])
			}
			n := float64(len(queries))
			b.ReportMetric(popped/n, "popped/op")
			b.ReportMetric(fetched/n, "windowqueries/op")
			b.ReportMetric(offered/n, "offers/op")
			b.ReportMetric(entered/n, "entries/op")
		})
	}
}

// BenchmarkNWCServing is BenchmarkKNWCServing's twin for the NWC: one query
// as the benchmark's workloads send it — l = w = 60, n = 8, NWC*, the
// serving execution — on 200k Gaussian points (σ 1000) queried at a data
// point plus N(0, 50) on each axis, which is dense-read's shape, and on the
// 200k uniform points of uniform-read; one row per measure (the workloads
// send max). Beside ns, B and allocs it reports node visits, candidate
// windows and the candidate high water per op, counted on a second, traced
// pass over the same queries.
func BenchmarkNWCServing(b *testing.B) {
	near := func(pts []geom.Point) []geom.Point {
		rng := rand.New(rand.NewSource(8))
		qs := make([]geom.Point, 64)
		for i := range qs {
			p := pts[rng.Intn(len(pts))]
			qs[i] = geom.Point{X: p.X + rng.NormFloat64()*50, Y: p.Y + rng.NormFloat64()*50}
		}
		return qs
	}
	dense := datagen.Gaussian(200000, 5000, 1000, 102)
	for _, set := range []struct {
		name    string
		pts     []geom.Point
		queries []geom.Point
	}{
		{"dense-200k", dense, near(dense)},
		{"uniform-200k", datagen.Uniform(200000, 101), harness.QueryPoints(64, 6)},
	} {
		env := benchEnv(b, set.pts)
		for _, measure := range []core.Measure{core.MeasureMax, core.MeasureMin, core.MeasureAvg, core.MeasureWindow} {
			run := func(q geom.Point, rec *trace.Recorder) core.Stats {
				_, st, err := env.Engine.NWC(context.Background(), core.Query{Q: q, L: 60, W: 60, N: 8},
					core.SchemeNWCStar, measure, core.Exec{Rec: rec})
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			b.Run(set.name+"/"+measure.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run(set.queries[i%len(set.queries)], nil)
				}
				b.StopTimer()
				var visits, windows, highWater float64
				for _, q := range set.queries {
					rec := trace.New()
					st := run(q, rec)
					qt := (&trace.Record{Engine: rec}).Trace("nwc", "", "", trace.Work{}, time.Time{}, 0)
					visits, windows = visits+float64(st.NodeVisits), windows+float64(st.CandidateWindows)
					highWater += float64(qt.CandidateHighWater)
				}
				n := float64(len(set.queries))
				b.ReportMetric(visits/n, "nodevisits/op")
				b.ReportMetric(windows/n, "candidatewindows/op")
				b.ReportMetric(highWater/n, "candidatehighwater/op")
			})
		}
	}
}

// BenchmarkRStarInsert measures one-by-one R* insertion.
func BenchmarkRStarInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree, err := rstar.New(rstar.NewMemStore(), rstar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: uint64(i)}
		if err := tree.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRStarBulkLoad measures STR packing of 100k points.
func BenchmarkRStarBulkLoad(b *testing.B) {
	pts := datagen.Uniform(100000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rstar.Build(rstar.NewMemStore(), rstar.Options{}, pts, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures the in-memory index's set-up as the benchmark
// harness does it: 200k uniform points, STR-packed, over a given space —
// tree, grid and IWP index together.
func BenchmarkBuild(b *testing.B) {
	pts := datagen.Uniform(200000, 101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, WithBulkLoad(), WithSpace(0, 0, datagen.SpaceWidth, datagen.SpaceWidth)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPaged measures a paged index's set-up as the benchmark
// harness's paged-mixed workload does it: 200k uniform points,
// STR-packed over a given space into a page file with a 512-page buffer
// pool and a 512-node cache. It reports the build's physical page
// writes and reads: a build writes each node's page once and reads
// none back. It also reports the wall time the build waited inside the
// page file's fsyncs, which a CPU profile does not see. Each build
// starts with no page file: the previous one is removed with the timer
// stopped, so no iteration pays for truncating its predecessor's 24 MB.
func BenchmarkBuildPaged(b *testing.B) {
	pts := datagen.Uniform(200000, 101)
	path := filepath.Join(b.TempDir(), "build.nwcq")
	var writes, reads uint64
	var syncWait time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px, err := BuildPaged(pts, path, WithBulkLoad(), WithSpace(0, 0, datagen.SpaceWidth, datagen.SpaceWidth),
			WithPageCacheSize(512), WithNodeCacheSize(512), WithWALSync(SyncAlways))
		if err != nil {
			b.Fatal(err)
		}
		st := px.pages.Stats()
		writes += st.Writes
		reads += st.Reads
		syncWait += st.SyncWait
		b.StopTimer()
		if err := px.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(syncWait.Seconds()*1e3/float64(b.N), "fsync-ms/op")
}

// BenchmarkRStarWindowQuery measures a window query returning ~25
// points from a 100k-point tree.
func BenchmarkRStarWindowQuery(b *testing.B) {
	pts := datagen.Uniform(100000, 4)
	env := benchEnv(b, pts)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*9800, rng.Float64()*9800
		var n int
		err := env.Tree.Search(geom.NewRect(x, y, x+158, y+158), func(geom.Point) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRStarNearestK measures a 10-NN query on a 100k-point tree.
func BenchmarkRStarNearestK(b *testing.B) {
	pts := datagen.Uniform(100000, 6)
	env := benchEnv(b, pts)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		if _, err := env.Tree.NearestK(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIWPWindowQuery contrasts IWP and traditional window queries
// for the search-region-shaped rectangles the NWC algorithm issues.
func BenchmarkIWPWindowQuery(b *testing.B) {
	pts := datagen.NYLikeN(20000, 8)
	env := benchEnv(b, pts)
	q := geom.Point{X: 5000, Y: 5000}
	it := env.Tree.NewNNIterator(q)
	type anchor struct {
		p    geom.Point
		leaf rstar.NodeID
	}
	var anchors []anchor
	for len(anchors) < 256 {
		p, leaf, _, ok := it.Next()
		if !ok {
			break
		}
		anchors = append(anchors, anchor{p, leaf})
	}
	b.Run("traditional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := anchors[i%len(anchors)]
			sr := geom.SearchRegion(q, a.p, 60, 60)
			if _, err := env.Tree.SearchCollect(sr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iwp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := anchors[i%len(anchors)]
			sr := geom.SearchRegion(q, a.p, 60, 60)
			if _, err := env.IWP.WindowCollect(a.leaf, sr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPagerReadWrite measures raw page I/O through the pager with
// its buffer pool disabled.
func BenchmarkPagerReadWrite(b *testing.B) {
	store, err := pager.Create(pager.NewMemFile(), pager.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var ids []pager.PageID
	payload := make([]byte, pager.PayloadSize())
	for i := 0; i < 1024; i++ {
		id, err := store.Allocate(nil, false)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.Run("write", func(b *testing.B) {
		b.SetBytes(pager.PageSize)
		for i := 0; i < b.N; i++ {
			if err := store.Write(ids[i%len(ids)], payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(pager.PageSize)
		for i := 0; i < b.N; i++ {
			if _, err := store.Read(ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Same reads against a pool that holds the working set: hits return
	// the shared immutable frame with zero copies and zero allocations.
	cached, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: 2048})
	if err != nil {
		b.Fatal(err)
	}
	var cids []pager.PageID
	for i := 0; i < 1024; i++ {
		id, err := cached.Allocate(nil, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := cached.Write(id, payload); err != nil {
			b.Fatal(err)
		}
		cids = append(cids, id)
	}
	b.Run("read-hot", func(b *testing.B) {
		b.SetBytes(pager.PageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cached.Read(cids[i%len(cids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPagedVsMemQuery compares the same NWC query on the resident
// and disk-paged forms of the index through the public API.
func BenchmarkPagedVsMemQuery(b *testing.B) {
	raw := datagen.CALikeN(10000, 9)
	pts := make([]Point, len(raw))
	for i, p := range raw {
		pts[i] = Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	q := Query{X: 5000, Y: 5000, Length: 80, Width: 80, N: 8}
	b.Run("mem", func(b *testing.B) {
		idx, err := Build(pts, WithBulkLoad())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := idx.NWC(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paged", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.nwcq")
		idx, err := BuildPaged(pts, path, WithBulkLoad())
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := idx.NWC(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPagedParallel measures NWC query throughput on a paged index
// under 1/2/4/8 goroutines, with the caches hot (buffer pool and node
// cache sized to hold the tree) and cold (both disabled, every read a
// physical page access). The hot path exercises the concurrency work in
// the pager — sharded zero-copy buffer pool, single-flight misses,
// atomic stats — whose wall-clock benefit appears as the goroutine
// count rises on multi-core hardware.
func BenchmarkPagedParallel(b *testing.B) {
	raw := datagen.CALikeN(10000, 9)
	pts := make([]Point, len(raw))
	for i, p := range raw {
		pts[i] = Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	queries := harness.QueryPoints(64, 11)
	configs := []struct {
		name string
		opts []BuildOption
	}{
		{"hot", []BuildOption{WithBulkLoad(), WithPageCacheSize(4096)}},
		{"cold", []BuildOption{WithBulkLoad(), WithPageCacheSize(0), WithNodeCacheSize(0)}},
	}
	for _, cfg := range configs {
		path := filepath.Join(b.TempDir(), cfg.name+".nwcq")
		idx, err := BuildPaged(pts, path, cfg.opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		// Warm the hot configuration's caches before timing.
		if cfg.name == "hot" {
			for _, q := range queries {
				if _, err := idx.NWC(Query{X: q.X, Y: q.Y, Length: 80, Width: 80, N: 8}); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", cfg.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				idx.ResetIOStats()
				start := make(chan struct{})
				var next atomic.Int64
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for {
							i := next.Add(1) - 1
							if i >= int64(b.N) {
								return
							}
							q := queries[int(i)%len(queries)]
							if _, err := idx.NWC(Query{X: q.X, Y: q.Y, Length: 80, Width: 80, N: 8}); err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				b.ResetTimer()
				close(start)
				wg.Wait()
				b.StopTimer()
				select {
				case err := <-errs:
					b.Fatal(err)
				default:
				}
				b.ReportMetric(float64(idx.IOStats())/float64(b.N), "nodevisits/op")
			})
		}
	}
}

// BenchmarkPagedInsertWAL measures durable insert cost on a disk-backed
// index across the three WAL sync policies and three batch sizes. The
// fsyncs/op metric counts both WAL and page-file fsyncs, so it shows
// how group commit and batching amortise the dominant durability cost:
// sync=always/batch=1 pays roughly one fsync per insert, while larger
// batches and the relaxed policies collapse toward zero.
func BenchmarkPagedInsertWAL(b *testing.B) {
	raw := datagen.Uniform(20000, 11)
	pts := make([]Point, len(raw))
	for i, p := range raw {
		pts[i] = Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	policies := []struct {
		name string
		opt  BuildOption
	}{
		{"always", WithWALSync(SyncAlways)},
		{"interval", WithWALSyncInterval(10 * time.Millisecond)},
		{"never", WithWALSync(SyncNever)},
	}
	for _, pol := range policies {
		for _, batch := range []int{1, 16, 128} {
			b.Run(fmt.Sprintf("sync=%s/batch=%d", pol.name, batch), func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "bench.nwcq")
				px, err := BuildPaged(pts, path, WithBulkLoad(), pol.opt)
				if err != nil {
					b.Fatal(err)
				}
				defer px.Close()
				rng := rand.New(rand.NewSource(13))
				nextID := uint64(1 << 32)
				fresh := func() Point {
					nextID++
					return Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: nextID}
				}
				syncs0 := px.dur.log.Stats().Syncs + px.PageStats().Syncs
				b.ReportAllocs()
				b.ResetTimer()
				if batch == 1 {
					for i := 0; i < b.N; i++ {
						if err := px.Insert(fresh()); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					buf := make([]Point, batch)
					for i := 0; i < b.N; i += batch {
						n := batch
						if rem := b.N - i; rem < n {
							n = rem
						}
						for j := 0; j < n; j++ {
							buf[j] = fresh()
						}
						if err := px.InsertBatch(buf[:n]); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				syncs1 := px.dur.log.Stats().Syncs + px.PageStats().Syncs
				b.ReportMetric(float64(syncs1-syncs0)/float64(b.N), "fsyncs/op")
			})
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation tables
// (build method, fan-out, IWP pointer spacing).
func BenchmarkAblation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		ts, err := harness.Ablation(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, ts...)
	}
}

// BenchmarkKNWCByN regenerates the extension experiment: the effect of
// the group size n on kNWC cost.
func BenchmarkKNWCByN(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := harness.FigKNWCByN(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// TestParseTableCell pins the cell grammar of reportTable: magnitude
// suffixes are honoured and non-numeric cells are skipped, not zeroed.
func TestParseTableCell(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"3.5", 3.5, true},
		{"1.2M", 1.2e6, true},
		{"7K", 7e3, true},
		{"7k", 7e3, true},
		{" 12 ", 12, true},
		{"", 0, false},
		{"-", 0, false},
		{"NWC*", 0, false},
		{"CA-like", 0, false},
	}
	for _, c := range cases {
		v, ok := parseTableCell(c.in)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("parseTableCell(%q) = %g, %v; want %g, %v", c.in, v, ok, c.want, c.ok)
		}
	}
}
