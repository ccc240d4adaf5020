package metrics

import (
	"math"
	"sync"
	"testing"

	"nwcq/internal/histo"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("value = %d, want 16000", c.Value())
	}
}

// The tests below hold the histogram every family PromWriter.Histogram
// renders (internal/histo's) to the bucketing and quantiles the
// exposition and the JSON snapshot report.

func TestNewHistogramValidation(t *testing.T) {
	if _, err := histo.New(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := histo.New([]float64{1, 1}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := histo.New([]float64{2, 1}); err == nil {
		t.Error("descending bounds accepted")
	}
}

func TestExponentialBounds(t *testing.T) {
	b := histo.LogBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v", b)
		}
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := histo.Must([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	s := h.Snapshot()
	wantCounts := []uint64{2, 1, 1, 1} // (<=1)=2, (<=2)=1, (<=4)=1, overflow=1
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Fatalf("sum = %g", s.Sum)
	}
	if math.Abs(s.Mean()-106.0/5) > 1e-9 {
		t.Fatalf("mean = %g", s.Mean())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := histo.Must([]float64{10, 20, 30})
	// 100 observations uniform in (10, 20]: all land in bucket 1.
	for i := 0; i < 100; i++ {
		h.Observe(10 + float64(i%10) + 1)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 10 || p50 > 20 {
		t.Fatalf("p50 = %g outside its bucket", p50)
	}
	if got := s.Quantile(0); got < 10-1e-9 {
		t.Fatalf("p0 = %g", got)
	}
	if got := s.Quantile(1); got > 20+1e-9 {
		t.Fatalf("p100 = %g beyond occupied bucket", got)
	}
}

func TestQuantileEmptyAndOverflow(t *testing.T) {
	h := histo.Must([]float64{1, 2})
	// An empty distribution has no quantiles: NaN, never a fake 0 that
	// reads as a perfect p99 in reports.
	if q := h.Snapshot().Quantile(0.99); !math.IsNaN(q) {
		t.Fatalf("empty quantile = %g, want NaN", q)
	}
	if q := h.Snapshot().QuantileOr(0.99, -1); q != -1 {
		t.Fatalf("empty QuantileOr = %g, want fallback -1", q)
	}
	h.Observe(50) // overflow bucket only
	if q := h.Snapshot().Quantile(0.5); q != 2 {
		t.Fatalf("overflow quantile = %g, want clamp to top bound 2", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := histo.Must(histo.LogBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64((seed*per + i) % 700))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}
