package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nwcq"
	"nwcq/internal/shard"
)

// promSeriesFor maps one numeric leaf of the MetricsSnapshot JSON (dotted
// path under "index") to the Prometheus series that must carry the same
// value. derived reports leaves that have no series by design: quantile
// and mean estimates (the exposition ships the histogram buckets
// instead), hit rates (a ratio of two exported counters) and the
// time-varying uptime.
func promSeriesFor(path string) (series string, derived bool) {
	p := strings.Split(path, ".")
	last := p[len(p)-1]
	switch {
	case strings.HasPrefix(last, "latency_") || strings.HasPrefix(last, "node_visits_"),
		last == "hit_rate", path == "uptime_seconds":
		return "", true
	case p[0] == "queries" && len(p) == 3 && last == "count":
		return fmt.Sprintf("nwcq_queries_total{kind=%q}", p[1]), false
	case p[0] == "queries" && len(p) == 3 && last == "errors":
		return fmt.Sprintf("nwcq_query_errors_total{kind=%q}", p[1]), false
	case p[0] == "scheme_counts" && len(p) == 2:
		return fmt.Sprintf("nwcq_scheme_queries_total{scheme=%q}", p[1]), false
	case p[0] == "router" && len(p) == 4 && p[1] == "phases" && last == "count":
		return fmt.Sprintf("nwcq_router_phase_seconds_count{phase=%q}", p[2]), false
	}
	if s, ok := map[string]string{
		"cumulative_node_visits":   "nwcq_node_visits_total",
		"iwp_rebuilds":             "nwcq_iwp_rebuilds_total",
		"page_cache.syncs":         "nwcq_page_syncs_total",
		"wal.appended_lsn":         "nwcq_wal_appended_lsn",
		"wal.durable_lsn":          "nwcq_wal_durable_lsn",
		"wal.committed_lsn":        "nwcq_wal_committed_lsn",
		"wal.replica_lsn":          "nwcq_replica_lsn",
		"result_cache.entries":     "nwcq_result_cache_entries",
		"subscriptions.active":     "nwcq_sub_active",
		"subscriptions.resyncs":    "nwcq_sub_resync_total",
		"router.shards":            "nwcq_shards",
		"router.shard_queries":     "nwcq_shard_queries_total",
		"router.shards_pruned":     "nwcq_shards_pruned_total",
		"router.border_fetches":    "nwcq_border_fetches_total",
		"router.border_points":     "nwcq_border_points_total",
		"router.fetch_reruns":      "nwcq_fetch_reruns_total",
		"router.bound_tightenings": "nwcq_bound_tightenings_total",
		"router.parallelism":       "nwcq_parallel_workers",
		"router.inflight_workers":  "nwcq_parallel_inflight",
	}[path]; ok {
		return s, false
	}
	if len(p) == 2 {
		if prefix, ok := map[string]string{
			"page_cache":    "nwcq_page_cache_",
			"wal":           "nwcq_wal_",
			"result_cache":  "nwcq_result_cache_",
			"subscriptions": "nwcq_sub_",
		}[p[0]]; ok {
			return prefix + last + "_total", false
		}
	}
	return "", false
}

// numericLeaves flattens decoded JSON into dotted-path → value for every
// number in it.
func numericLeaves(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case map[string]any:
		for k, child := range x {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			numericLeaves(path, child, out)
		}
	}
}

// TestMetricsJSONPrometheusParity drives the same script of queries and
// mutations through an in-memory index, a paged index and a Dir-mode
// sharded router, then checks the two renderings of /metrics against
// each other: every numeric leaf of the JSON snapshot has a Prometheus
// sample with the same value, and everything a paged index exports the
// router exports too.
func TestMetricsJSONPrometheusParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]nwcq.Point, 1500)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
	}
	backends := []struct {
		name string
		open func(t *testing.T) (nwcq.Querier, nwcq.Mutator)
	}{
		{"index", func(t *testing.T) (nwcq.Querier, nwcq.Mutator) {
			ix, err := nwcq.Build(pts, nwcq.WithBulkLoad(), nwcq.WithResultCache(64))
			if err != nil {
				t.Fatal(err)
			}
			return ix, ix
		}},
		{"paged", func(t *testing.T) (nwcq.Querier, nwcq.Mutator) {
			px, err := nwcq.BuildPaged(pts, filepath.Join(t.TempDir(), "idx.nwc"), nwcq.WithBulkLoad(), nwcq.WithResultCache(64))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { px.Close() })
			return px, px
		}},
		{"sharded", func(t *testing.T) (nwcq.Querier, nwcq.Mutator) {
			sh, err := shard.NewSharded(pts, shard.Options{
				Shards: 4, Dir: t.TempDir(), ResultCache: 64,
				Build: []nwcq.BuildOption{nwcq.WithBulkLoad()},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sh.Close() })
			return sh, sh
		}},
	}
	families := map[string]map[string]string{}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			q, m := b.open(t)
			ts := httptest.NewServer(New(q, m).Handler())
			defer ts.Close()

			for _, path := range []string{
				"/nwc?x=500&y=500&l=80&w=80&n=4",
				"/nwc?x=500&y=500&l=80&w=80&n=4", // result-cache hit
				"/nwc?x=250&y=750&l=60&w=60&n=3&scheme=nwc",
				"/nwc?x=500&y=500&l=80&w=80&n=4&explain=1",
				"/knwc?x=500&y=500&l=80&w=80&n=3&k=2&m=1",
				"/nearest?x=500&y=500&k=3",
			} {
				var discard any
				if code := getJSON(t, ts.URL+path, &discard); code != http.StatusOK {
					t.Fatalf("GET %s: status %d", path, code)
				}
			}
			for _, path := range []string{"/insert", "/delete"} {
				if code := postJSON(t, ts.URL+path, `{"x": 500.5, "y": 500.5, "id": 900001}`, &struct{}{}); code != http.StatusOK {
					t.Fatalf("POST %s: status %d", path, code)
				}
			}

			var body struct {
				Index map[string]any `json:"index"`
			}
			if code := getJSON(t, ts.URL+"/metrics", &body); code != http.StatusOK {
				t.Fatalf("GET /metrics: status %d", code)
			}
			leaves := map[string]float64{}
			numericLeaves("", body.Index, leaves)
			values, typed := scrapeProm(t, ts.URL)
			families[b.name] = typed

			checked := 0
			for path, want := range leaves {
				series, derived := promSeriesFor(path)
				if derived {
					continue
				}
				if series == "" {
					t.Errorf("snapshot leaf %s has no Prometheus family", path)
					continue
				}
				got, ok := values[series]
				if !ok {
					t.Errorf("snapshot leaf %s = %g: series %s missing from the exposition", path, want, series)
				} else if got != want {
					t.Errorf("snapshot leaf %s = %g but %s = %g", path, want, series, got)
				}
				checked++
			}
			if leaves["queries.nwc.count"] != 4 || leaves["queries.insert.count"] != 1 || leaves["result_cache.hits"] != 1 {
				t.Errorf("script not reflected in the snapshot: nwc=%g insert=%g cache hits=%g",
					leaves["queries.nwc.count"], leaves["queries.insert.count"], leaves["result_cache.hits"])
			}
			if _, ok := values["nwcq_uptime_seconds"]; !ok {
				t.Error("nwcq_uptime_seconds missing")
			}
			if checked < 25 {
				t.Errorf("only %d leaves compared; the snapshot walk is broken", checked)
			}
		})
	}
	var missing []string
	for family, typ := range families["paged"] {
		if got, ok := families["sharded"][family]; !ok {
			missing = append(missing, family)
		} else if got != typ {
			t.Errorf("family %s: paged TYPE %s, sharded TYPE %s", family, typ, got)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("families a paged index exports and the router does not: %v", missing)
	}
}
