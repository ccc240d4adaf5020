package nwcq

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"nwcq/internal/obs"
)

// TestExplainNWCVisitSum is the tracing acceptance check: for every
// scheme the per-phase node-visit counts must sum exactly to the
// query's Stats.NodeVisits — the recorder and the Stats carrier ride
// the same Reader, so any drift means an instrumentation gap.
func TestExplainNWCVisitSum(t *testing.T) {
	ix := buildTestIndex(t, 3000)
	q := Query{X: 500, Y: 500, Length: 80, Width: 80, N: 5}
	for _, sch := range []Scheme{
		SchemeNWC, SchemeSRR, SchemeDIP, SchemeDEP, SchemeIWP, SchemeNWCPlus, SchemeNWCStar,
	} {
		q.Scheme = sch
		plain, err := ix.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := ix.ExplainNWC(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil {
			t.Fatalf("%s: nil trace", sch)
		}
		if res.Found != plain.Found || res.Group.Dist != plain.Group.Dist {
			t.Errorf("%s: traced result disagrees with plain query", sch)
		}
		if res.Stats.NodeVisits != plain.Stats.NodeVisits {
			t.Errorf("%s: traced visits %d != plain visits %d — tracing changed the traversal",
				sch, res.Stats.NodeVisits, plain.Stats.NodeVisits)
		}
		var sum uint64
		for _, p := range tr.Phases {
			sum += p.NodeVisits
		}
		if sum != res.Stats.NodeVisits {
			t.Errorf("%s: phase visit sum %d != Stats.NodeVisits %d", sch, sum, res.Stats.NodeVisits)
		}
		if tr.NodeVisits != res.Stats.NodeVisits {
			t.Errorf("%s: trace visits %d != stats %d", sch, tr.NodeVisits, res.Stats.NodeVisits)
		}
		if tr.Kind != "nwc" || tr.Scheme != sch.String() || tr.Measure != "max" {
			t.Errorf("%s: trace header %s/%s/%s", sch, tr.Kind, tr.Scheme, tr.Measure)
		}
		if tr.Duration <= 0 || len(tr.Phases) == 0 {
			t.Errorf("%s: empty trace (duration %v, %d phases)", sch, tr.Duration, len(tr.Phases))
		}
		// Counters copied from Stats must match it exactly.
		c := tr.Counters
		if c.WindowQueries != int64(res.Stats.WindowQueries) ||
			c.CandidateWindows != int64(res.Stats.CandidateWindows) ||
			c.QualifiedWindows != int64(res.Stats.QualifiedWindows) ||
			c.GridProbes != int64(res.Stats.GridProbes) {
			t.Errorf("%s: counters diverge from Stats: %+v vs %+v", sch, c, res.Stats)
		}
		// Rule-split counters must re-aggregate to the Stats totals.
		if c.DIPPrunedNodes+c.DEPPrunedNodes != int64(res.Stats.NodesPruned) {
			t.Errorf("%s: DIP %d + DEP %d != NodesPruned %d",
				sch, c.DIPPrunedNodes, c.DEPPrunedNodes, res.Stats.NodesPruned)
		}
		if c.SRRSkips+c.DEPSkippedObjects != int64(res.Stats.ObjectsSkipped) {
			t.Errorf("%s: SRR skips %d + DEP skips %d != ObjectsSkipped %d",
				sch, c.SRRSkips, c.DEPSkippedObjects, res.Stats.ObjectsSkipped)
		}
		if res.Found && c.GroupsEmitted == 0 {
			t.Errorf("%s: found a group but GroupsEmitted = 0", sch)
		}
		// The verify stage's books balance: every qualified window is
		// either ruled out by a distance gate or materialised.
		if c.QualifiedWindows != c.WindowsGated+c.GroupsEmitted {
			t.Errorf("%s: qualified %d != gated %d + emitted %d",
				sch, c.QualifiedWindows, c.WindowsGated, c.GroupsEmitted)
		}
		// So do the window memo's: its first strip is W0, read for the seed
		// before the first anchor (DESIGN.md §19); after it an anchor is
		// served from the memo, grows it by one to four strips, or bypasses
		// it; and under an IWP scheme every range query that reached the
		// index started somewhere.
		grew, strips := c.WindowQueries-c.MemoServed-c.MemoBypassed, c.MemoStrips-1
		if grew < 0 || strips < grew || strips > 4*grew {
			t.Errorf("%s: %d window queries, %d served, %d bypassed leave %d growths for %d strips after W0",
				sch, c.WindowQueries, c.MemoServed, c.MemoBypassed, grew, strips)
		}
		if _, _, _, iwp := sch.Flags(); iwp && c.IWPJumpStarts+c.IWPRootStarts != c.MemoStrips+c.MemoBypassed {
			t.Errorf("%s: %d jump + %d root starts != %d strips + %d bypassed",
				sch, c.IWPJumpStarts, c.IWPRootStarts, c.MemoStrips, c.MemoBypassed)
		}
		if tr.HeapHighWater == 0 {
			t.Errorf("%s: heap high-water = 0", sch)
		}
	}
}

func TestExplainKNWC(t *testing.T) {
	ix := buildTestIndex(t, 3000)
	kq := KQuery{Query: Query{X: 500, Y: 500, Length: 80, Width: 80, N: 4}, K: 3, M: 1}
	res, tr, err := ix.ExplainKNWC(context.Background(), kq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Groups) != 3 {
		t.Fatalf("found=%v groups=%d", res.Found, len(res.Groups))
	}
	var sum uint64
	for _, p := range tr.Phases {
		sum += p.NodeVisits
	}
	if sum != res.Stats.NodeVisits {
		t.Errorf("phase visit sum %d != Stats.NodeVisits %d", sum, res.Stats.NodeVisits)
	}
	if tr.Kind != "knwc" {
		t.Errorf("kind = %q", tr.Kind)
	}
	c := tr.Counters
	if c.DedupOffered == 0 || c.DedupAccepted == 0 {
		t.Errorf("dedup counters empty: %+v", c)
	}
	if c.DedupAccepted > c.DedupOffered {
		t.Errorf("accepted %d > offered %d", c.DedupAccepted, c.DedupOffered)
	}
	// Every qualified window is ruled out by a distance gate, skipped as
	// the repeat of the one before it, or reaches the pool's test; a group
	// is materialised only for one that enters.
	if c.QualifiedWindows != c.WindowsGated+c.WindowsRepeated+c.DedupOffered || c.WindowsRepeated == 0 {
		t.Errorf("qualified %d != gated %d + repeated %d + offered %d, or nothing repeated",
			c.QualifiedWindows, c.WindowsGated, c.WindowsRepeated, c.DedupOffered)
	}
	if c.GroupsEmitted != c.DedupAccepted {
		t.Errorf("groups emitted %d != dedup accepted %d", c.GroupsEmitted, c.DedupAccepted)
	}
	if out := tr.Render(); !strings.Contains(out, "repeated=") || !strings.Contains(out, "stopped-at-bound=1") {
		t.Errorf("render misses the repeats or the stop:\n%s", out)
	}
	var sawDedup bool
	for _, p := range tr.Phases {
		if p.Phase == "knwc-dedup" {
			sawDedup = true
			if p.Entered == 0 {
				t.Error("knwc-dedup phase never entered")
			}
		}
	}
	if !sawDedup {
		t.Error("no knwc-dedup phase in trace")
	}
}

// TestExplainStopAtBound pins what a trace says of the stop rule (DESIGN.md
// §19) on one query in a dense Gaussian cluster: under the max measure
// the search ended at the bound, having left off the queue what lay beyond
// it and processed eight objects (the drained queue of Algorithm 1
// processes 980 for the same answer, with a heap of 483), all eight on
// search regions cut to its box — the first to the seed's, which W0 gives
// before there is a group (DESIGN.md §19); under the min measure the
// rule does not apply and all three counters stay 0; a kNWC ends at the
// reach of its third group, with nothing left off the queue and no region
// cut.
func TestExplainStopAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]Point, 4000)
	for i := range pts {
		pts[i] = Point{X: 500 + rng.NormFloat64()*60, Y: 500 + rng.NormFloat64()*60, ID: uint64(i)}
	}
	ix, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 510, Y: 495, Length: 30, Width: 30, N: 8}
	res, tr, err := ix.ExplainNWC(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Counters
	if !res.Found || c.StoppedAtBound != 1 || c.NeverQueued != 105 || c.Clipped != 8 || res.Stats.ObjectsProcessed != 8 || tr.HeapHighWater != 140 {
		t.Errorf("max: found=%v stopped_at_bound=%d never_queued=%d clipped=%d objects=%d heap=%d, want true, 1, 105, 8, 8, 140",
			res.Found, c.StoppedAtBound, c.NeverQueued, c.Clipped, res.Stats.ObjectsProcessed, tr.HeapHighWater)
	}
	out := tr.Render()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"never-queued=105", "stopped-at-bound=1", "clipped=8", `"never_queued":105`, `"stopped_at_bound":1`, `"clipped":8`} {
		if !strings.Contains(out+string(raw), want) {
			t.Errorf("render and JSON miss %q:\n%s\n%s", want, out, raw)
		}
	}
	q.Measure = MinDistance
	if _, tr, err = ix.ExplainNWC(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if c := tr.Counters; c.StoppedAtBound != 0 || c.NeverQueued != 0 || c.Clipped != 0 {
		t.Errorf("min: stopped_at_bound=%d never_queued=%d clipped=%d, want 0, 0 and 0", c.StoppedAtBound, c.NeverQueued, c.Clipped)
	}
	q.Measure = MaxDistance
	if _, tr, err = ix.ExplainKNWC(context.Background(), KQuery{Query: q, K: 3, M: 1}); err != nil {
		t.Fatal(err)
	}
	if c := tr.Counters; c.StoppedAtBound != 1 || c.NeverQueued != 0 || c.Clipped != 0 {
		t.Errorf("kNWC: stopped_at_bound=%d never_queued=%d clipped=%d, want 1, 0 and 0", c.StoppedAtBound, c.NeverQueued, c.Clipped)
	}
}

func TestQueryTraceRenderAndJSON(t *testing.T) {
	ix := buildTestIndex(t, 2000)
	_, tr, err := ix.ExplainNWC(context.Background(), Query{X: 500, Y: 500, Length: 80, Width: 80, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Render()
	for _, want := range []string{"nwc scheme=NWC*", "descent", "window-enum", "verify", "qualified=", "gated=", "groups-emitted=", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryTrace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.NodeVisits != tr.NodeVisits || len(back.Phases) != len(tr.Phases) {
		t.Error("trace did not round-trip through JSON")
	}
}

// TestSlowQueryLogConcurrent is the slow-log acceptance check: with an
// over-threshold query mixed into concurrent load, an entry must appear
// — and the whole path must stay -race clean.
func TestSlowQueryLogConcurrent(t *testing.T) {
	ix := buildTestIndex(t, 3000)
	if got := ix.SlowQueryThreshold(); got != 0 {
		t.Fatalf("default threshold = %v, want 0 (off)", got)
	}
	// Threshold off: nothing may be recorded.
	if _, err := ix.NWC(Query{X: 500, Y: 500, Length: 50, Width: 50, N: 3}); err != nil {
		t.Fatal(err)
	}
	if n := len(ix.SlowQueries()); n != 0 {
		t.Fatalf("%d entries recorded while disabled", n)
	}

	// 1ns threshold makes every query slow; hammer it from several
	// goroutines while another reads the log.
	ix.SetSlowQueryThreshold(time.Nanosecond)
	var wg sync.WaitGroup
	const workers, iters = 4, 20
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := Query{X: float64((g*211 + i*31) % 1000), Y: 500, Length: 60, Width: 60, N: 3}
				if i%3 == 0 {
					if _, err := ix.KNWCCtx(context.Background(), KQuery{Query: q, K: 2, M: 1}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := ix.NWC(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ix.SlowQueries()
		}
	}()
	wg.Wait()

	entries := ix.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-query entries under 1ns threshold")
	}
	if len(entries) > obs.SlowLogSize {
		t.Fatalf("%d entries exceed ring size %d", len(entries), obs.SlowLogSize)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].StartedAt.After(entries[i-1].StartedAt) {
			t.Fatal("entries not newest-first")
		}
	}
	kinds := map[string]bool{}
	for _, e := range entries {
		kinds[e.Kind] = true
		if e.Duration <= 0 {
			t.Fatalf("entry without duration: %+v", e)
		}
		if e.Scheme != "NWC*" || e.N != 3 {
			t.Fatalf("entry lost query parameters: %+v", e)
		}
	}
	if !kinds["nwc"] || !kinds["knwc"] {
		t.Errorf("kinds recorded: %v", kinds)
	}

	// Turning the log back off stops recording but keeps history.
	ix.SetSlowQueryThreshold(0)
	before := len(ix.SlowQueries())
	if _, err := ix.NWC(Query{X: 1, Y: 1, Length: 50, Width: 50, N: 3}); err != nil {
		t.Fatal(err)
	}
	if got := len(ix.SlowQueries()); got != before {
		t.Errorf("entry recorded after disabling: %d -> %d", before, got)
	}
}

// TestSlowLogSkipsInvalidQueries pins a bug found driving the HTTP
// surface: a validation-rejected query (which may carry NaN/Inf
// parameters) must not enter the slow log — one NaN coordinate would
// make the whole log unencodable as JSON.
func TestSlowLogSkipsInvalidQueries(t *testing.T) {
	ix := buildTestIndex(t, 500)
	ix.SetSlowQueryThreshold(time.Nanosecond)
	if _, err := ix.NWC(Query{X: math.NaN(), Y: 1, Length: 10, Width: 10, N: 3}); err == nil {
		t.Fatal("NaN query accepted")
	}
	if _, err := ix.NWC(Query{X: 1, Y: 1, Length: -5, Width: 10, N: 3}); err == nil {
		t.Fatal("negative-extent query accepted")
	}
	if n := len(ix.SlowQueries()); n != 0 {
		t.Fatalf("%d invalid queries entered the slow log", n)
	}
	if _, err := ix.NWC(Query{X: 500, Y: 500, Length: 100, Width: 100, N: 3}); err != nil {
		t.Fatal(err)
	}
	entries := ix.SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	if _, err := json.Marshal(entries); err != nil {
		t.Fatalf("slow log not JSON-encodable: %v", err)
	}
}

func TestSlowQueryThresholdOption(t *testing.T) {
	ix, err := Build(testPoints(500, 1), WithBulkLoad(), WithSlowQueryThreshold(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.SlowQueryThreshold(); got != time.Nanosecond {
		t.Fatalf("threshold = %v", got)
	}
	if _, err := ix.NWC(Query{X: 500, Y: 500, Length: 100, Width: 100, N: 3}); err != nil {
		t.Fatal(err)
	}
	entries := ix.SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	if entries[0].Kind != "nwc" || entries[0].NodeVisits == 0 {
		t.Errorf("entry = %+v", entries[0])
	}
}
