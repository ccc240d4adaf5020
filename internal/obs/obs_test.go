package obs

import (
	"context"
	"fmt"
	"testing"
	"time"

	"nwcq/internal/core"
	"nwcq/internal/qcache"
)

var testQuery = Query{X: 1, Y: 2, Length: 3, Width: 4, N: 5, Scheme: 15, Measure: core.MeasureMax}

// TestCacheHitVisitsNothing: an answer served from a result cache read no
// node, whatever the stored Stats of the execution that filled the entry
// say — in the visit histogram and in the slow log alike.
func TestCacheHitVisitsNothing(t *testing.T) {
	r := NewRecorder(time.Nanosecond, "")
	r.Finish(KindNWC, testQuery, time.Now(), 40, true, nil)
	km := r.Snapshot(Sources{}).Queries["nwc"]
	if km.Count != 1 || km.NodeVisitsMean != 0 {
		t.Errorf("after a hit: count %d, visits mean %g, want 1 and 0", km.Count, km.NodeVisitsMean)
	}
	if e := r.SlowQueries(); len(e) != 1 || e[0].NodeVisits != 0 {
		t.Fatalf("slow log after a hit: %+v", e)
	}
	r.Finish(KindNWC, testQuery, time.Now(), 40, false, nil)
	if km := r.Snapshot(Sources{}).Queries["nwc"]; km.NodeVisitsMean != 20 {
		t.Errorf("a hit and a 40-visit miss: visits mean %g, want 20", km.NodeVisitsMean)
	}
}

// TestInvalidQueryCountedNotLogged: a rejected query is an error of its
// kind but never a slow-log entry (it may carry NaN parameters the log's
// JSON cannot hold); any other failure is logged with its error.
func TestInvalidQueryCountedNotLogged(t *testing.T) {
	r := NewRecorder(time.Nanosecond, "")
	r.Finish(KindKNWC, testQuery, time.Now(), 0, false, fmt.Errorf("%w: length -1", ErrInvalidQuery))
	if km := r.Snapshot(Sources{}).Queries["knwc"]; km.Count != 1 || km.Errors != 1 {
		t.Errorf("invalid query: count %d, errors %d, want 1 and 1", km.Count, km.Errors)
	}
	if e := r.SlowQueries(); len(e) != 0 {
		t.Fatalf("invalid query entered the slow log: %+v", e)
	}
	r.Finish(KindKNWC, testQuery, time.Now(), 7, false, context.Canceled)
	e := r.SlowQueries()
	if len(e) != 1 || e[0].Error != context.Canceled.Error() || e[0].Kind != "knwc" || e[0].Scheme != "NWC*" {
		t.Fatalf("cancelled query's entry: %+v", e)
	}
}

// TestZeroThresholdTurnsLogOff: zero (the default) and negative
// thresholds log nothing; turning the log off keeps what it holds.
func TestZeroThresholdTurnsLogOff(t *testing.T) {
	r := NewRecorder(0, "")
	r.Finish(KindNWC, testQuery, time.Now(), 1, false, nil)
	if n := len(r.SlowQueries()); n != 0 {
		t.Fatalf("%d entries with the log off", n)
	}
	r.SetSlowThreshold(time.Nanosecond)
	r.Finish(KindNWC, testQuery, time.Now(), 1, false, nil)
	r.SetSlowThreshold(-time.Second)
	if got := r.SlowThreshold(); got != 0 {
		t.Errorf("negative threshold reads %v, want 0", got)
	}
	r.Finish(KindNWC, testQuery, time.Now(), 1, false, nil)
	if n := len(r.SlowQueries()); n != 1 {
		t.Errorf("%d entries, want the 1 logged while on", n)
	}
}

// TestSlowEntryCarriesSource: every entry is stamped with its recorder's
// source — "router" on the shard router, empty on a single index.
func TestSlowEntryCarriesSource(t *testing.T) {
	for _, source := range []string{"", "router"} {
		r := NewRecorder(time.Nanosecond, source)
		r.Finish(KindNWC, testQuery, time.Now(), 3, false, nil)
		if e := r.SlowQueries(); len(e) != 1 || e[0].Source != source || e[0].N != 5 || e[0].Measure != "max" {
			t.Errorf("source %q: entries %+v", source, e)
		}
	}
}

// TestSlowQueriesNewestFirst: the log reads newest first, and entries
// that started at the same instant keep the order they were given in.
func TestSlowQueriesNewestFirst(t *testing.T) {
	t0 := time.Now().Add(-time.Minute)
	r := NewRecorder(time.Nanosecond, "")
	for _, off := range []time.Duration{0, 2 * time.Second, time.Second} {
		r.Finish(KindNWC, testQuery, t0.Add(off), 1, false, nil)
	}
	got := r.SlowQueries()
	if len(got) != 3 || !got[0].StartedAt.Equal(t0.Add(2*time.Second)) || !got[1].StartedAt.Equal(t0.Add(time.Second)) || !got[2].StartedAt.Equal(t0) {
		t.Fatalf("not newest first: %+v", got)
	}
	entries := []SlowQueryEntry{{StartedAt: t0, X: 1}, {StartedAt: t0.Add(time.Second), X: 2}, {StartedAt: t0.Add(time.Second), X: 3}, {StartedAt: t0.Add(time.Second), X: 4}}
	SortSlowQueries(entries)
	for i, want := range []float64{2, 3, 4, 1} {
		if entries[i].X != want {
			t.Fatalf("position %d holds X=%g, want %g: %+v", i, entries[i].X, want, entries)
		}
	}
}

// TestAddShardSumsAndMaxes: a router's storage state is its shards'
// counters summed and, since every shard numbers its own log, the largest
// of each LSN; a block no shard has stays nil.
func TestAddShardSumsAndMaxes(t *testing.T) {
	var src Sources
	src.AddShard(MetricsSnapshot{
		CumulativeNodeVisits: 10, IWPRebuilds: 1,
		PageCache: &PageCacheMetrics{Reads: 1, Writes: 2, Hits: 3, Misses: 4, Evictions: 5, Coalesced: 6, Syncs: 7},
		WAL: &WALMetrics{Appends: 1, AppendBytes: 2, Fsyncs: 3, Rotations: 4, SegmentsRecycled: 5, Checkpoints: 6, RecordsReplayed: 7,
			AppendedLSN: 90, DurableLSN: 80, CommittedLSN: 90, ReplicaLSN: 0, SyncPolicy: "always"},
	})
	src.AddShard(MetricsSnapshot{
		CumulativeNodeVisits: 5, IWPRebuilds: 2,
		PageCache: &PageCacheMetrics{Reads: 10, Writes: 20, Hits: 30, Misses: 40, Evictions: 50, Coalesced: 60, Syncs: 70},
		WAL: &WALMetrics{Appends: 10, AppendBytes: 20, Fsyncs: 30, Rotations: 40, SegmentsRecycled: 50, Checkpoints: 60, RecordsReplayed: 70,
			AppendedLSN: 40, DurableLSN: 95, CommittedLSN: 40, ReplicaLSN: 3, SyncPolicy: "always"},
	})
	if src.NodeVisits != 15 || src.IWPRebuilds != 3 {
		t.Errorf("visits %d, rebuilds %d, want 15 and 3", src.NodeVisits, src.IWPRebuilds)
	}
	if pc := *src.PageCache; pc != (PageCacheMetrics{Reads: 11, Writes: 22, Hits: 33, Misses: 44, Evictions: 55, Coalesced: 66, Syncs: 77}) {
		t.Errorf("page cache %+v", pc)
	}
	want := WALMetrics{Appends: 11, AppendBytes: 22, Fsyncs: 33, Rotations: 44, SegmentsRecycled: 55, Checkpoints: 66, RecordsReplayed: 77,
		AppendedLSN: 90, DurableLSN: 95, CommittedLSN: 90, ReplicaLSN: 3, SyncPolicy: "always"}
	if w := *src.WAL; w != want {
		t.Errorf("WAL %+v, want %+v", w, want)
	}
	var none Sources
	none.AddShard(MetricsSnapshot{CumulativeNodeVisits: 1})
	if none.PageCache != nil || none.WAL != nil {
		t.Errorf("in-memory shards grew storage blocks: %+v %+v", none.PageCache, none.WAL)
	}
}

// TestHitRatesZeroBeforeLookups: a hit rate with nothing looked up yet is
// 0, not NaN (which JSON cannot encode), and Hits / (Hits + Misses) after.
func TestHitRatesZeroBeforeLookups(t *testing.T) {
	r := NewRecorder(0, "")
	s := r.Snapshot(Sources{PageCache: &PageCacheMetrics{}, ResultCache: &qcache.Stats{}})
	if s.PageCache.HitRate != 0 || s.ResultCache.HitRate != 0 {
		t.Errorf("hit rates before any lookup: page %g, result %g", s.PageCache.HitRate, s.ResultCache.HitRate)
	}
	s = r.Snapshot(Sources{PageCache: &PageCacheMetrics{Hits: 3, Misses: 1}, ResultCache: &qcache.Stats{Hits: 1, Misses: 3, Entries: 2}})
	if s.PageCache.HitRate != 0.75 || s.ResultCache.HitRate != 0.25 || s.ResultCache.Entries != 2 {
		t.Errorf("hit rates: page %g, result %+v", s.PageCache.HitRate, s.ResultCache)
	}
}
