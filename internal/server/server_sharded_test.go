package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nwcq"
	"nwcq/internal/shard"
)

// shardedServer builds a 4-shard router over deterministic points and
// serves it through the standard handlers.
func shardedServer(t *testing.T, opts ...Option) (*shard.Sharded, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]nwcq.Point, 1200)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
	}
	sh, err := shard.NewSharded(pts, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	ts := httptest.NewServer(New(sh, sh, opts...).Handler())
	t.Cleanup(ts.Close)
	return sh, ts
}

// TestShardedBackend serves a scatter-gather router through the same
// handlers as a single index: the Querier/Mutator seam is the only
// coupling, so every endpoint must work unchanged.
func TestShardedBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]nwcq.Point, 400)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
	}
	sh, err := shard.NewSharded(pts, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	ts := httptest.NewServer(New(sh, sh).Handler())
	t.Cleanup(ts.Close)

	var nres struct {
		Found bool    `json:"found"`
		Dist  float64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4", &nres); code != http.StatusOK {
		t.Fatalf("nwc status %d", code)
	}
	if !nres.Found {
		t.Fatal("nwc found nothing")
	}

	var stats struct {
		Points     int `json:"points"`
		TreeHeight int `json:"tree_height"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Points != 400 {
		t.Fatalf("stats points=%d, want 400", stats.Points)
	}

	var ins struct {
		Inserted bool `json:"inserted"`
		Points   int  `json:"points"`
	}
	if code := postJSON(t, ts.URL+"/insert", `{"x": 500.5, "y": 500.5, "id": 9001}`, &ins); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if !ins.Inserted || ins.Points != 401 {
		t.Fatalf("insert response %+v", ins)
	}

	values, typed := scrapeProm(t, ts.URL)
	if values["nwcq_shards"] != 4 {
		t.Errorf("nwcq_shards = %g, want 4", values["nwcq_shards"])
	}
	for _, want := range []string{"nwcq_queries_total", "nwcq_http_requests_total"} {
		if typed[want] != "counter" {
			t.Errorf("prometheus exposition: family %s has type %q, want counter", want, typed[want])
		}
	}

	var metrics struct {
		Index struct {
			Router *struct {
				Shards int `json:"shards"`
			} `json:"router"`
		} `json:"index"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.Index.Router == nil || metrics.Index.Router.Shards != 4 {
		t.Fatalf("router section = %+v", metrics.Index.Router)
	}
}

// TestShardedPrometheusFormat parses the full exposition of a sharded
// backend line by line: every router-level family must be well-formed,
// the phase histograms must hold the cumulative-bucket invariant, and
// the build-identity gauge must be present exactly once.
func TestShardedPrometheusFormat(t *testing.T) {
	_, ts := shardedServer(t)
	var tmp struct {
		Found bool `json:"found"`
	}
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2", &struct{}{})

	values, typed := scrapeProm(t, ts.URL)

	if v := values["nwcq_shards"]; v != 4 {
		t.Errorf("nwcq_shards = %g, want 4", v)
	}
	var shardPoints float64
	for i := 0; i < 4; i++ {
		name := `nwcq_shard_points{shard="` + strconv.Itoa(i) + `"}`
		v, ok := values[name]
		if !ok {
			t.Errorf("%s missing", name)
		}
		shardPoints += v
	}
	if shardPoints != 1200 {
		t.Errorf("shard points sum to %g, want 1200", shardPoints)
	}

	// Router phase split: every routed query observes all three phase
	// histograms exactly once (zero for skipped phases), so the counts
	// stay equal and the quantiles comparable.
	if typed["nwcq_router_phase_seconds"] != "histogram" {
		t.Errorf("phase family type = %q", typed["nwcq_router_phase_seconds"])
	}
	for _, phase := range []string{"scatter", "border", "merge"} {
		count := checkPromHistogram(t, values, "nwcq_router_phase_seconds", `phase="`+phase+`"`)
		if count != 2 {
			t.Errorf("phase %s count = %g, want 2 (one nwc + one knwc)", phase, count)
		}
	}

	if typed["nwcq_slow_queries_total"] != "counter" {
		t.Errorf("slow-query family type = %q", typed["nwcq_slow_queries_total"])
	}
	if v, ok := values["nwcq_slow_queries_total"]; !ok || v != 0 {
		t.Errorf("nwcq_slow_queries_total = %g present=%v, want 0 with no threshold set", v, ok)
	}
	if checkPromHistogram(t, values, "nwcq_query_latency_seconds", `kind="nwc"`) != 1 {
		t.Error("routed nwc latency count != 1")
	}
	checkBuildInfo(t, values, typed)
}

// TestShardedSlowlogSources drives slow traffic through the router and
// checks /debug/slowlog carries both granularities: router-level
// entries (whole routed execution, Source "router") and the per-shard
// local shares stamped "shard<i>".
func TestShardedSlowlogSources(t *testing.T) {
	sh, ts := shardedServer(t)
	sh.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	var tmp struct {
		Found bool `json:"found"`
	}
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2", &struct{}{})

	var out struct {
		ThresholdNs int64 `json:"threshold_ns"`
		Entries     []struct {
			Kind       string `json:"kind"`
			Source     string `json:"source"`
			DurationNs int64  `json:"duration_ns"`
		} `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/debug/slowlog", &out); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	if out.ThresholdNs != 1 {
		t.Errorf("threshold_ns = %d", out.ThresholdNs)
	}
	routerKinds := map[string]int{}
	shardEntries := 0
	for _, e := range out.Entries {
		switch {
		case e.Source == "router":
			routerKinds[e.Kind]++
			if e.DurationNs <= 0 {
				t.Errorf("router entry %+v lacks duration", e)
			}
		case strings.HasPrefix(e.Source, "shard"):
			shardEntries++
		default:
			t.Errorf("entry with unexpected source %q", e.Source)
		}
	}
	if routerKinds["nwc"] != 1 || routerKinds["knwc"] != 1 {
		t.Errorf("router entries by kind = %v, want one nwc and one knwc", routerKinds)
	}
	if shardEntries == 0 {
		t.Error("no shard-level entries in merged slowlog")
	}
}

// TestReadOnlyServer checks a nil Mutator turns the mutation endpoints
// into 501s while queries keep working.
func TestReadOnlyServer(t *testing.T) {
	idx, err := nwcq.Build([]nwcq.Point{{X: 1, Y: 1, ID: 1}, {X: 2, Y: 2, ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx, nil).Handler())
	t.Cleanup(ts.Close)

	var nres struct {
		Found bool `json:"found"`
	}
	if code := getJSON(t, ts.URL+"/nwc?x=1&y=1&l=4&w=4&n=2", &nres); code != http.StatusOK {
		t.Fatalf("nwc status %d", code)
	}
	resp, err := http.Post(ts.URL+"/insert", "application/json",
		strings.NewReader(`{"x": 3, "y": 3, "id": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("insert on read-only server: status %d, want 501", resp.StatusCode)
	}
}
