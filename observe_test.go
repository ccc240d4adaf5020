package nwcq

import (
	"context"
	"sync"
	"testing"
	"time"
)

func buildTestIndex(t *testing.T, n int) *Index {
	t.Helper()
	ix, err := Build(testPoints(n, 1), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestSchemeIndexRoundTrip checks that each of the 16 flag combinations
// lands in its own slot of the recorder and reads back under its own
// name, and that the zero value counts as NWC*.
func TestSchemeIndexRoundTrip(t *testing.T) {
	ix := buildTestIndex(t, 100)
	q := Query{X: 500, Y: 500, Length: 100, Width: 100, N: 3}
	names := map[string]bool{}
	for i := 0; i < 16; i++ {
		q.Scheme = NewScheme(i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0)
		names[q.Scheme.String()] = true
		if _, err := ix.NWC(q); err != nil {
			t.Fatalf("NewScheme(%04b): %v", i, err)
		}
	}
	if len(names) != 16 {
		t.Fatalf("16 schemes have %d names: %v", len(names), names)
	}
	q.Scheme = SchemeDefault
	if _, err := ix.NWC(q); err != nil {
		t.Fatal(err)
	}
	got := ix.Metrics().SchemeCounts
	for name := range names {
		want := uint64(1)
		if name == "NWC*" {
			want = 2
		}
		if got[name] != want {
			t.Errorf("SchemeCounts[%q] = %d, want %d", name, got[name], want)
		}
	}
	if len(got) != 16 {
		t.Errorf("SchemeCounts has %d entries, want 16: %v", len(got), got)
	}
}

// TestHitRateZeroReads pins the divide-by-zero edge: a paged index that
// has served no reads must report HitRate 0, not NaN.
func TestHitRateZeroReads(t *testing.T) {
	ix := buildTestIndex(t, 100)
	ix.pageStats = func() PageStats { return PageStats{} }
	snap := ix.Metrics()
	if snap.PageCache == nil {
		t.Fatal("no page cache section")
	}
	if snap.PageCache.HitRate != 0 {
		t.Errorf("HitRate = %g, want 0", snap.PageCache.HitRate)
	}
}

func TestMetricsSnapshotTimestamps(t *testing.T) {
	ix := buildTestIndex(t, 100)
	snap := ix.Metrics()
	if snap.CollectedAt.IsZero() {
		t.Error("CollectedAt is zero")
	}
	if snap.UptimeSeconds < 0 {
		t.Errorf("UptimeSeconds = %g", snap.UptimeSeconds)
	}
	time.Sleep(2 * time.Millisecond)
	snap2 := ix.Metrics()
	if snap2.UptimeSeconds <= snap.UptimeSeconds {
		t.Errorf("uptime did not advance: %g then %g", snap.UptimeSeconds, snap2.UptimeSeconds)
	}
	if !snap2.CollectedAt.After(snap.CollectedAt) {
		t.Error("CollectedAt did not advance")
	}
}

// TestMetricsConcurrentWithQueries races Metrics and WritePrometheus
// snapshots against live queries; run with -race it doubles as the
// data-race check for the whole observability path.
func TestMetricsConcurrentWithQueries(t *testing.T) {
	ix := buildTestIndex(t, 2000)
	ix.SetSlowQueryThreshold(time.Nanosecond)
	const (
		workers = 4
		iters   = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := Query{
					X: float64((g*131 + i*17) % 1000), Y: float64((g*71 + i*41) % 1000),
					Length: 60, Width: 60, N: 3,
				}
				if i%2 == 0 {
					if _, err := ix.NWC(q); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, _, err := ix.ExplainNWC(context.Background(), q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			snap := ix.Metrics()
			if snap.Queries["nwc"].Errors != 0 {
				t.Errorf("unexpected errors: %d", snap.Queries["nwc"].Errors)
				return
			}
			if err := ix.WritePrometheus(discard{}); err != nil {
				t.Error(err)
				return
			}
			ix.SlowQueries()
		}
	}()
	wg.Wait()

	snap := ix.Metrics()
	if got := snap.Queries["nwc"].Count; got != workers*iters {
		t.Errorf("nwc count = %d, want %d", got, workers*iters)
	}
	if snap.SchemeCounts["NWC*"] != workers*iters {
		t.Errorf("scheme counts = %v", snap.SchemeCounts)
	}
	if len(ix.SlowQueries()) == 0 {
		t.Error("no slow queries recorded under 1ns threshold")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
