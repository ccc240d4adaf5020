package shard

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nwcq"
)

// TestShardedMetrics checks the aggregated snapshot: router-level query
// counts, per-shard storage state summed, and the Router section.
func TestShardedMetrics(t *testing.T) {
	_, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(13)), 50), 4)

	q := nwcq.Query{X: 50, Y: 50, Length: 6, Width: 6, N: 3}
	for i := 0; i < 5; i++ {
		if _, err := sh.NWC(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.KNWC(nwcq.KQuery{Query: q, K: 2, M: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.NWC(nwcq.Query{X: 1, Y: 1, Length: -1, Width: 1, N: 1}); err == nil {
		t.Fatal("expected validation error")
	}

	snap := sh.Metrics()
	if got := snap.Queries["nwc"].Count; got != 6 {
		t.Fatalf("nwc count=%d, want 6 (5 ok + 1 error)", got)
	}
	if got := snap.Queries["nwc"].Errors; got != 1 {
		t.Fatalf("nwc errors=%d, want 1", got)
	}
	if got := snap.Queries["knwc"].Count; got != 1 {
		t.Fatalf("knwc count=%d, want 1", got)
	}
	if snap.Router == nil {
		t.Fatal("Router section missing")
	}
	if snap.Router.Shards != 4 {
		t.Fatalf("Router.Shards=%d, want 4", snap.Router.Shards)
	}
	if snap.Router.ShardQueries == 0 {
		t.Fatal("Router.ShardQueries=0")
	}
	rs := sh.RouterStats()
	if rs.ShardQueries != snap.Router.ShardQueries {
		t.Fatalf("RouterStats/Metrics disagree: %d vs %d", rs.ShardQueries, snap.Router.ShardQueries)
	}
}

// TestShardedPrometheus checks the text exposition carries both the
// single-index-compatible families and the router-specific ones.
func TestShardedPrometheus(t *testing.T) {
	_, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(17)), 40), 4)
	if _, err := sh.NWC(nwcq.Query{X: 50, Y: 50, Length: 6, Width: 6, N: 3}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := sh.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"nwcq_queries_total{kind=\"nwc\"}",
		"nwcq_query_latency_seconds_bucket",
		"nwcq_index_points",
		"nwcq_shards 4",
		"nwcq_shard_points{shard=\"0\"}",
		"nwcq_shard_queries_total",
		"nwcq_shards_pruned_total",
		"nwcq_border_fetches_total",
		"nwcq_fetch_reruns_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestShardedExplain checks trace merging: shard-prefixed phases,
// summed counters, and the synthetic border-fetch and border-merge phases.
func TestShardedExplain(t *testing.T) {
	_, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(29)), 50), 4)

	q := nwcq.Query{X: 50, Y: 50, Length: 6, Width: 6, N: 3}
	res, tr, err := sh.ExplainNWC(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("expected a group")
	}
	if tr == nil || len(tr.Phases) == 0 {
		t.Fatal("empty trace")
	}
	sawShard, sawBorder, sawMerge := false, false, false
	for i, p := range tr.Phases {
		if strings.HasPrefix(p.Phase, "shard") {
			sawShard = true
		}
		if p.Phase == "border-fetch" {
			sawBorder = true
		}
		if p.Phase == "border-merge" {
			// The sweep of what was fetched: after the fetch, and timed.
			sawMerge = sawBorder && i == len(tr.Phases)-1 && p.Duration > 0
		}
	}
	if !sawShard {
		t.Fatal("no shard-prefixed phase in merged trace")
	}
	if !sawBorder {
		t.Fatal("no border-fetch phase for a straddling query")
	}
	if !sawMerge {
		t.Fatalf("no timed border-merge phase closing the trace of a straddling query: %+v", tr.Phases)
	}
	if tr.Render() == "" {
		t.Fatal("trace failed to render")
	}

	kres, ktr, err := sh.ExplainKNWC(context.Background(), nwcq.KQuery{Query: q, K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !kres.Found || ktr == nil || len(ktr.Phases) == 0 {
		t.Fatal("kNWC explain produced no trace")
	}
}

// TestShardedSlowLog checks the threshold fans out, entries merge, and
// every routed entry point — the Ctx forms and the explained forms —
// leaves one Source "router" entry, validation failures excepted.
func TestShardedSlowLog(t *testing.T) {
	_, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(31)), 40), 2)
	sh.SetSlowQueryThreshold(time.Nanosecond)
	if got := sh.SlowQueryThreshold(); got != time.Nanosecond {
		t.Fatalf("threshold=%v, want 1ns", got)
	}
	ctx := context.Background()
	q := nwcq.Query{X: 50, Y: 50, Length: 8, Width: 8, N: 3}
	kq := nwcq.KQuery{Query: q, K: 2, M: 1}
	routed := func(kind string) int {
		n := 0
		for _, e := range sh.SlowQueries() {
			if e.Source == "router" && e.Kind == kind {
				n++
			}
		}
		return n
	}
	for _, step := range []struct {
		name, kind string
		run        func() error
	}{
		{"NWC", "nwc", func() error { _, err := sh.NWC(q); return err }},
		{"KNWC", "knwc", func() error { _, err := sh.KNWC(kq); return err }},
		{"ExplainNWC", "nwc", func() error { _, _, err := sh.ExplainNWC(ctx, q); return err }},
		{"ExplainKNWC", "knwc", func() error { _, _, err := sh.ExplainKNWC(ctx, kq); return err }},
	} {
		before := routed(step.kind)
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := routed(step.kind); got != before+1 {
			t.Errorf("%s left %d router %s entries, want %d", step.name, got, step.kind, before+1)
		}
	}
	before := len(sh.SlowQueries())
	if _, _, err := sh.ExplainNWC(ctx, nwcq.Query{X: 50, Y: 50, Length: -1, Width: 8, N: 3}); !errors.Is(err, nwcq.ErrInvalidQuery) {
		t.Fatalf("invalid query returned %v, want ErrInvalidQuery", err)
	}
	if got := len(sh.SlowQueries()); got != before {
		t.Errorf("validation failure recorded: %d entries, was %d", got, before)
	}
	shardEntries := 0
	for _, e := range sh.SlowQueries() {
		if strings.HasPrefix(e.Source, "shard") {
			shardEntries++
		}
	}
	if shardEntries == 0 {
		t.Error("no shard-level entries merged despite the 1ns threshold on every shard")
	}
}
