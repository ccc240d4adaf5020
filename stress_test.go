package nwcq

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Concurrency-correctness tests: per-query Stats must be exact at any
// parallelism, and context cancellation must abort cleanly without
// corrupting index state or the cumulative I/O counter. Run with -race.

// TestBatchStatsMatchSequential is the acceptance check for per-query
// accounting: every Result of a highly parallel NWCBatch must carry a
// Stats identical (struct equality) to the one the same query reports
// when run alone — while unrelated KNWC and Nearest traffic hammers the
// index from other goroutines.
func TestBatchStatsMatchSequential(t *testing.T) {
	pts := testPoints(4000, 91)
	idx, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = Query{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
			Length: 60 + rng.Float64()*60, Width: 60 + rng.Float64()*60,
			N:      2 + rng.Intn(5),
			Scheme: []Scheme{SchemeNWC, SchemeNWCPlus, SchemeNWCStar, SchemeDefault}[i%4],
		}
	}
	// Sequential ground truth first.
	want := make([]Stats, len(queries))
	for i, q := range queries {
		res, err := idx.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stats
	}

	// Background noise: concurrent kNWC and k-NN queries.
	stop := make(chan struct{})
	var noise sync.WaitGroup
	for g := 0; g < 4; g++ {
		noise.Add(1)
		go func(seed int64) {
			defer noise.Done()
			nrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				x, y := nrng.Float64()*1000, nrng.Float64()*1000
				if seed%2 == 0 {
					if _, err := idx.KNWC(KQuery{
						Query: Query{X: x, Y: y, Length: 70, Width: 70, N: 3},
						K:     2, M: 1,
					}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := idx.Nearest(x, y, 5); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}

	batch, err := idx.NWCBatch(queries, BatchOptions{Parallelism: 8})
	close(stop)
	noise.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if batch[i].Stats != want[i] {
			t.Errorf("query %d: parallel stats %+v != sequential %+v", i, batch[i].Stats, want[i])
		}
	}
}

// TestKNWCBatchStatsMatchSequential covers the kNWC path the same way.
func TestKNWCBatchStatsMatchSequential(t *testing.T) {
	idx, err := Build(testPoints(3000, 93), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(94))
	queries := make([]KQuery, 32)
	for i := range queries {
		queries[i] = KQuery{
			Query: Query{
				X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
				Length: 80, Width: 80, N: 3,
			},
			K: 3, M: 1,
		}
	}
	want := make([]Stats, len(queries))
	for i, q := range queries {
		res, err := idx.KNWCCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stats
	}
	batch, err := idx.KNWCBatch(queries, BatchOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if batch[i].Stats != want[i] {
			t.Errorf("query %d: parallel stats %+v != sequential %+v", i, batch[i].Stats, want[i])
		}
	}
}

func TestPreCancelledContext(t *testing.T) {
	idx, err := Build(testPoints(2000, 95), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{X: 500, Y: 500, Length: 60, Width: 60, N: 4}
	if _, err := idx.NWCCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("NWCCtx error = %v, want context.Canceled", err)
	}
	if _, err := idx.KNWCCtx(ctx, KQuery{Query: q, K: 2, M: 0}); !errors.Is(err, context.Canceled) {
		t.Errorf("KNWCCtx error = %v, want context.Canceled", err)
	}
	if _, err := idx.NWCBatchCtx(ctx, []Query{q}, BatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("NWCBatchCtx error = %v, want context.Canceled", err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	idx, err := Build(testPoints(2000, 96), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := Query{X: 500, Y: 500, Length: 60, Width: 60, N: 4}
	if _, err := idx.NWCCtx(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("NWCCtx error = %v, want context.DeadlineExceeded", err)
	}
}

// TestMidQueryCancellation cancels while queries are in flight and
// verifies (a) the batch reports the context's error and (b) the
// cumulative I/O counter is still consistent afterwards: reset it, run
// one query alone, and the index-wide total must equal that query's own
// NodeVisits — a cancelled traversal must not leak or lose counts.
func TestMidQueryCancellation(t *testing.T) {
	idx, err := Build(testPoints(5000, 97), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(98))
	queries := make([]Query, 256)
	for i := range queries {
		queries[i] = Query{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
			Length: 100, Width: 100, N: 6,
			Scheme: SchemeNWC, // slowest scheme: keeps the batch in flight
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	_, err = idx.NWCBatchCtx(ctx, queries, BatchOptions{Parallelism: 8})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want nil or context.Canceled", err)
	}
	if err == nil {
		t.Log("batch finished before cancellation; counter check still runs")
	}

	idx.ResetIOStats()
	res, err := idx.NWC(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.IOStats(); got != res.Stats.NodeVisits {
		t.Errorf("cumulative counter %d != single query's %d after cancellation", got, res.Stats.NodeVisits)
	}
}

func TestValidationErrors(t *testing.T) {
	idx, err := Build(testPoints(100, 99))
	if err != nil {
		t.Fatal(err)
	}
	nan := func(q Query) Query { q.X = nan64(); return q }
	base := Query{X: 1, Y: 2, Length: 10, Width: 10, N: 3}
	bad := []Query{
		nan(base),
		{X: 1, Y: 2, Length: 0, Width: 10, N: 3},
		{X: 1, Y: 2, Length: 10, Width: -1, N: 3},
		{X: 1, Y: 2, Length: 10, Width: 10, N: 0},
		{X: 1, Y: 2, Length: 10, Width: 10, N: 3, Measure: Measure(99)},
		{X: 1, Y: 2, Length: 10, Width: 10, N: 3, Scheme: SchemeNWC + 1},
	}
	for i, q := range bad {
		_, err := idx.NWC(q)
		if !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("bad query %d: error %v does not unwrap to ErrInvalidQuery", i, err)
		}
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Param == "" {
			t.Errorf("bad query %d: error %v is not a ValidationError", i, err)
		}
	}
	if _, err := idx.KNWC(KQuery{Query: base, K: 0}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("K=0 error = %v", err)
	}
	if _, err := idx.KNWC(KQuery{Query: base, K: 1, M: -1}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("M=-1 error = %v", err)
	}
	if _, err := idx.Window(10, 0, 0, 10); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("inverted window error = %v", err)
	}
	if _, err := idx.Nearest(1, 2, 0); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("k=0 nearest error = %v", err)
	}
}

func nan64() float64 {
	var zero float64
	return zero / zero
}

// TestIndexMetrics sanity-checks the aggregated observability snapshot.
func TestIndexMetrics(t *testing.T) {
	idx, err := Build(testPoints(1000, 100), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 500, Y: 500, Length: 60, Width: 60, N: 3}
	for i := 0; i < 5; i++ {
		if _, err := idx.NWC(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := idx.KNWC(KQuery{Query: q, K: 2, M: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.NWC(Query{N: 0}); err == nil {
		t.Fatal("invalid query accepted")
	}
	m := idx.Metrics()
	nwc := m.Queries["nwc"]
	if nwc.Count != 6 || nwc.Errors != 1 {
		t.Errorf("nwc count/errors = %d/%d, want 6/1", nwc.Count, nwc.Errors)
	}
	if m.Queries["knwc"].Count != 1 {
		t.Errorf("knwc count = %d", m.Queries["knwc"].Count)
	}
	if nwc.NodeVisitsP50 <= 0 {
		t.Errorf("nwc visit p50 = %g", nwc.NodeVisitsP50)
	}
	if nwc.LatencyP99Ms < nwc.LatencyP50Ms {
		t.Errorf("latency p99 %g < p50 %g", nwc.LatencyP99Ms, nwc.LatencyP50Ms)
	}
	// 5 good NWC + 1 rejected NWC + 1 kNWC, all on the default scheme.
	if m.SchemeCounts["NWC*"] != 7 {
		t.Errorf("scheme counts = %v", m.SchemeCounts)
	}
	if m.CumulativeNodeVisits == 0 {
		t.Error("cumulative node visits = 0")
	}
}
