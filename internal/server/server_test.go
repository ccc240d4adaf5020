package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nwcq"
	"nwcq/internal/repl"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]nwcq.Point, 3000)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
	}
	idx, err := nwcq.Build(pts, nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, idx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" && resp.StatusCode == 200 {
		t.Fatalf("content type %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

type nwcResponse struct {
	Found bool `json:"found"`
	Group *struct {
		Objects []struct {
			X  float64 `json:"x"`
			Y  float64 `json:"y"`
			ID uint64  `json:"id"`
		} `json:"objects"`
		Dist   float64 `json:"dist"`
		Window struct {
			MinX float64 `json:"min_x"`
			MaxX float64 `json:"max_x"`
		} `json:"window"`
	} `json:"group"`
	Stats struct {
		NodeVisits uint64 `json:"node_visits"`
	} `json:"stats"`
}

func TestNWCEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out nwcResponse
	code := getJSON(t, ts.URL+"/nwc?x=500&y=500&l=100&w=100&n=5", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !out.Found || out.Group == nil {
		t.Fatal("no result on dense data")
	}
	if len(out.Group.Objects) != 5 {
		t.Fatalf("%d objects", len(out.Group.Objects))
	}
	if out.Group.Window.MaxX-out.Group.Window.MinX > 100+1e-9 {
		t.Error("window too wide")
	}
	if out.Stats.NodeVisits == 0 {
		t.Error("no I/O reported")
	}
}

func TestNWCEndpointSchemesAgree(t *testing.T) {
	_, ts := testServer(t)
	var base nwcResponse
	getJSON(t, ts.URL+"/nwc?x=300&y=700&l=80&w=80&n=4&scheme=NWC", &base)
	for _, scheme := range []string{"SRR", "DIP", "DEP", "IWP", "NWC%2B", "NWC*"} {
		var out nwcResponse
		code := getJSON(t, ts.URL+"/nwc?x=300&y=700&l=80&w=80&n=4&scheme="+scheme, &out)
		if code != 200 {
			t.Fatalf("scheme %s: status %d", scheme, code)
		}
		if out.Found != base.Found || (out.Found && out.Group.Dist != base.Group.Dist) {
			t.Fatalf("scheme %s disagrees with NWC", scheme)
		}
	}
}

func TestNWCEndpointNotFound(t *testing.T) {
	_, ts := testServer(t)
	var out nwcResponse
	code := getJSON(t, ts.URL+"/nwc?x=500&y=500&l=0.001&w=0.001&n=5", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Found || out.Group != nil {
		t.Error("impossible query reported found")
	}
}

func TestKNWCEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out struct {
		Groups []struct {
			Dist    float64 `json:"dist"`
			Objects []struct {
				ID uint64 `json:"id"`
			} `json:"objects"`
		} `json:"groups"`
	}
	code := getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=4&k=3&m=1&measure=avg", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Groups) != 3 {
		t.Fatalf("%d groups", len(out.Groups))
	}
	for i := 1; i < len(out.Groups); i++ {
		if out.Groups[i].Dist < out.Groups[i-1].Dist {
			t.Error("groups out of order")
		}
	}
}

func TestNearestEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out []struct {
		X, Y float64
		ID   uint64 `json:"id"`
	}
	code := getJSON(t, ts.URL+"/nearest?x=500&y=500&k=7", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out) != 7 {
		t.Fatalf("%d neighbours", len(out))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []string{
		"/nwc",                                  // missing everything
		"/nwc?x=1&y=2&l=10&w=10",                // missing n
		"/nwc?x=abc&y=2&l=10&w=10&n=3",          // bad number
		"/nwc?x=1&y=2&l=10&w=10&n=0",            // invalid n
		"/nwc?x=1&y=2&l=10&w=10&n=3&scheme=zzz", // bad scheme
		"/nwc?x=1&y=2&l=10&w=10&n=3&measure=zz", // bad measure
		"/knwc?x=1&y=2&l=10&w=10&n=3",           // missing k
		"/knwc?x=1&y=2&l=10&w=10&n=3&k=2&m=-1",  // bad m
		"/nearest?x=1&y=2",                      // missing k
	}
	for _, c := range cases {
		var out struct {
			Error string `json:"error"`
		}
		code := getJSON(t, ts.URL+c, &out)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c, code)
		}
		if out.Error == "" {
			t.Errorf("%s: no error message", c)
		}
	}
}

// TestNIsAnInteger: n is parsed as k and m are, so a fraction is not
// truncated and an out-of-range or NaN float never reaches a float→int
// conversion; every rejection names the parameter.
func TestNIsAnInteger(t *testing.T) {
	_, ts := testServer(t)
	for _, c := range []struct {
		n    string
		code int
	}{
		{"2.9", 400}, {"1e30", 400}, {"NaN", 400}, {"-1", 400}, {"", 400}, {"8", 200},
	} {
		for _, path := range []string{"/nwc?x=500&y=500&l=100&w=100&n=", "/knwc?x=500&y=500&l=100&w=100&k=2&n="} {
			var out struct {
				Error string `json:"error"`
				Found bool   `json:"found"`
			}
			code := getJSON(t, ts.URL+path+c.n, &out)
			if code != c.code {
				t.Errorf("%s%s: status %d, want %d", path, c.n, code, c.code)
			}
			if c.code == 400 && !strings.Contains(strings.ToLower(out.Error), `"n"`) && !strings.Contains(out.Error, "invalid N") {
				t.Errorf("%s%s: error %q does not name the parameter", path, c.n, out.Error)
			}
			if c.code == 200 && !out.Found {
				t.Errorf("%s%s: no group found", path, c.n)
			}
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := testServer(t)
	// Generate some traffic first.
	var tmp nwcResponse
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=50&w=50&n=3", &tmp)
	getJSON(t, ts.URL+"/nwc?bad=1", &struct{ Error string }{})

	var stats map[string]any
	code := getJSON(t, ts.URL+"/stats", &stats)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats["points"].(float64) != 3000 {
		t.Errorf("points = %v", stats["points"])
	}
	if stats["requests_served"].(float64) < 1 {
		t.Errorf("served = %v", stats["requests_served"])
	}
	if stats["requests_failed"].(float64) < 1 {
		t.Errorf("failed = %v", stats["requests_failed"])
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// Traffic: two good queries, one bad request.
	var tmp nwcResponse
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=50&w=50&n=3", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2", &struct{}{})
	getJSON(t, ts.URL+"/nwc?x=1&y=2&l=10&w=10&n=0", &struct{ Error string }{})

	var out struct {
		Index struct {
			Queries map[string]struct {
				Count        uint64  `json:"count"`
				Errors       uint64  `json:"errors"`
				LatencyP95Ms float64 `json:"latency_p95_ms"`
				VisitsP50    float64 `json:"node_visits_p50"`
			} `json:"queries"`
			SchemeCounts         map[string]uint64 `json:"scheme_counts"`
			CumulativeNodeVisits uint64            `json:"cumulative_node_visits"`
		} `json:"index"`
		Endpoints map[string]struct {
			Requests uint64 `json:"requests"`
			Failures uint64 `json:"failures"`
		} `json:"endpoints"`
	}
	code := getJSON(t, ts.URL+"/metrics", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	nwc := out.Index.Queries["nwc"]
	if nwc.Count != 2 || nwc.Errors != 1 {
		t.Errorf("index nwc count/errors = %d/%d, want 2/1", nwc.Count, nwc.Errors)
	}
	if nwc.VisitsP50 <= 0 {
		t.Errorf("node visit p50 = %g", nwc.VisitsP50)
	}
	if out.Index.Queries["knwc"].Count != 1 {
		t.Errorf("knwc count = %d", out.Index.Queries["knwc"].Count)
	}
	if out.Index.SchemeCounts["NWC*"] == 0 {
		t.Errorf("scheme counts = %v", out.Index.SchemeCounts)
	}
	if out.Index.CumulativeNodeVisits == 0 {
		t.Error("cumulative node visits = 0")
	}
	ep := out.Endpoints["nwc"]
	if ep.Requests != 2 || ep.Failures != 1 {
		t.Errorf("endpoint nwc requests/failures = %d/%d, want 2/1", ep.Requests, ep.Failures)
	}
}

func TestExplainParam(t *testing.T) {
	_, ts := testServer(t)
	type traced struct {
		nwcResponse
		Trace *struct {
			Kind       string `json:"kind"`
			Scheme     string `json:"scheme"`
			NodeVisits uint64 `json:"node_visits"`
			DurationNs int64  `json:"duration_ns"`
			Phases     []struct {
				Phase      string `json:"phase"`
				NodeVisits uint64 `json:"node_visits"`
			} `json:"phases"`
		} `json:"trace"`
	}
	var plain traced
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=100&w=100&n=5", &plain)
	if plain.Trace != nil {
		t.Error("trace present without explain=1")
	}
	var out traced
	code := getJSON(t, ts.URL+"/nwc?x=500&y=500&l=100&w=100&n=5&explain=1", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !out.Found {
		t.Fatal("no result")
	}
	if out.Trace == nil {
		t.Fatal("explain=1 returned no trace")
	}
	if out.Trace.Kind != "nwc" || out.Trace.Scheme == "" {
		t.Errorf("trace kind/scheme = %q/%q", out.Trace.Kind, out.Trace.Scheme)
	}
	if out.Trace.NodeVisits != out.Stats.NodeVisits {
		t.Errorf("trace visits %d != stats visits %d", out.Trace.NodeVisits, out.Stats.NodeVisits)
	}
	var sum uint64
	for _, p := range out.Trace.Phases {
		sum += p.NodeVisits
	}
	if sum != out.Stats.NodeVisits {
		t.Errorf("phase visit sum %d != stats visits %d", sum, out.Stats.NodeVisits)
	}
	if out.Trace.DurationNs <= 0 {
		t.Errorf("duration_ns = %d", out.Trace.DurationNs)
	}

	var kout traced
	code = getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=4&k=2&m=1&explain=true", &kout)
	if code != 200 {
		t.Fatalf("knwc status %d", code)
	}
	if kout.Trace == nil || kout.Trace.Kind != "knwc" {
		t.Fatalf("knwc trace = %+v", kout.Trace)
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	s, ts := testServer(t)
	s.idx.(nwcq.SlowLogger).SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	var tmp nwcResponse
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=50&w=50&n=3", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2", &struct{}{})

	var out struct {
		ThresholdNs int64 `json:"threshold_ns"`
		Entries     []struct {
			Kind       string  `json:"kind"`
			Scheme     string  `json:"scheme"`
			X          float64 `json:"x"`
			DurationNs int64   `json:"duration_ns"`
			NodeVisits uint64  `json:"node_visits"`
		} `json:"entries"`
	}
	code := getJSON(t, ts.URL+"/debug/slowlog", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.ThresholdNs != 1 {
		t.Errorf("threshold_ns = %d", out.ThresholdNs)
	}
	if len(out.Entries) != 2 {
		t.Fatalf("%d slow entries, want 2", len(out.Entries))
	}
	kinds := map[string]bool{}
	for _, e := range out.Entries {
		kinds[e.Kind] = true
		if e.DurationNs <= 0 || e.NodeVisits == 0 {
			t.Errorf("entry %+v lacks duration/visits", e)
		}
		if e.X != 500 {
			t.Errorf("entry x = %g", e.X)
		}
	}
	if !kinds["nwc"] || !kinds["knwc"] {
		t.Errorf("kinds = %v", kinds)
	}
}

// promLine matches a Prometheus 0.0.4 sample line:
// metric_name{label="v",...} value
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? \S+$`)

// scrapeProm fetches /metrics?format=prometheus, validates every line
// of the exposition, and returns sample values keyed by full series
// name plus the declared TYPE per family. Beyond line syntax it lints
// the family structure: one HELP and one TYPE per family, both ahead of
// the family's first sample, and no sample without a declared family.
func scrapeProm(t *testing.T, baseURL string) (values map[string]float64, typed map[string]string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	values = map[string]float64{}
	typed = map[string]string{}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			parts := strings.Fields(line)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			family := parts[2]
			if sampled[family] {
				t.Fatalf("%q follows the first sample of family %s", line, family)
			}
			if parts[1] == "HELP" {
				if helped[family] {
					t.Fatalf("second HELP for family %s", family)
				}
				helped[family] = true
				continue
			}
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := typed[family]; dup {
				t.Fatalf("second TYPE for family %s", family)
			}
			typed[family] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[line[:sp]] = v
		family := line[:strings.IndexAny(line, "{ ")]
		if _, ok := typed[family]; !ok {
			// A histogram's series carry the family name plus a suffix.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suffix); base != family && typed[base] == "histogram" {
					family = base
					break
				}
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		sampled[family] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return values, typed
}

// checkPromHistogram asserts the histogram invariants for one labelled
// series — buckets cumulative, +Inf bucket equal to the _count sample —
// and returns the observation count.
func checkPromHistogram(t *testing.T, values map[string]float64, family, labels string) float64 {
	t.Helper()
	inf := -1.0
	type bkt struct{ le, v float64 }
	var buckets []bkt
	for name, v := range values {
		if !strings.HasPrefix(name, family+"_bucket{"+labels) {
			continue
		}
		le := name[strings.Index(name, `le="`)+4:]
		le = le[:strings.IndexByte(le, '"')]
		if le == "+Inf" {
			inf = v
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", le, err)
		}
		buckets = append(buckets, bkt{f, v})
	}
	if len(buckets) == 0 {
		t.Errorf("%s{%s}: no buckets in exposition", family, labels)
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].v < buckets[i-1].v {
			t.Errorf("%s{%s} bucket le=%g count %g < previous %g: not cumulative",
				family, labels, buckets[i].le, buckets[i].v, buckets[i-1].v)
		}
	}
	count := values[family+"_count{"+labels+"}"]
	if inf != count {
		t.Errorf("%s{%s}: +Inf bucket %g != count %g", family, labels, inf, count)
	}
	return count
}

// checkBuildInfo pins the nwcq_build_info gauge: a gauge family with
// exactly one series, constant value 1, identity in labels.
func checkBuildInfo(t *testing.T, values map[string]float64, typed map[string]string) {
	t.Helper()
	if typed["nwcq_build_info"] != "gauge" {
		t.Errorf("nwcq_build_info type = %q, want gauge", typed["nwcq_build_info"])
	}
	series := 0
	for name, v := range values {
		if !strings.HasPrefix(name, "nwcq_build_info{") {
			continue
		}
		series++
		if v != 1 {
			t.Errorf("%s = %g, want constant 1", name, v)
		}
		if !strings.Contains(name, `go_version="go`) || !strings.Contains(name, `version="`) {
			t.Errorf("build info labels incomplete: %s", name)
		}
	}
	if series != 1 {
		t.Errorf("nwcq_build_info series = %d, want 1", series)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := testServer(t)
	var tmp nwcResponse
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=50&w=50&n=3", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2", &struct{}{})

	values, typed := scrapeProm(t, ts.URL)

	if v := values[`nwcq_queries_total{kind="nwc"}`]; v != 1 {
		t.Errorf("nwcq_queries_total{kind=nwc} = %g, want 1", v)
	}
	if v := values[`nwcq_index_points`]; v != 3000 {
		t.Errorf("nwcq_index_points = %g", v)
	}
	if typed["nwcq_query_latency_seconds"] != "histogram" {
		t.Errorf("latency family type = %q", typed["nwcq_query_latency_seconds"])
	}
	if count := checkPromHistogram(t, values, "nwcq_query_latency_seconds", `kind="nwc"`); count != 1 {
		t.Errorf("latency count = %g, want 1", count)
	}
	if values[`nwcq_http_requests_total{endpoint="nwc"}`] != 1 {
		t.Errorf("http requests for nwc = %g", values[`nwcq_http_requests_total{endpoint="nwc"}`])
	}
	checkBuildInfo(t, values, typed)
}

// cutWriter is a ResponseWriter whose client goes away: writes from the
// failAt-th on fail, and it counts how many were attempted.
type cutWriter struct {
	header http.Header
	failAt int
	writes int
}

func (c *cutWriter) Header() http.Header { return c.header }
func (c *cutWriter) WriteHeader(int)     {}
func (c *cutWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.writes >= c.failAt {
		return 0, errors.New("client went away")
	}
	return len(p), nil
}

// TestMetricsPrometheusStopsAtFirstWriteError cuts the connection at
// points spread over the whole exposition — index families, endpoint
// families, replica gauges — and checks the failed write is the last
// one attempted.
func TestMetricsPrometheusStopsAtFirstWriteError(t *testing.T) {
	idx, err := nwcq.Build([]nwcq.Point{{X: 1, Y: 1, ID: 1}, {X: 2, Y: 2, ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, idx, WithReplica(func() repl.Status { return repl.Status{Ready: true} }))
	whole := &cutWriter{header: http.Header{}, failAt: math.MaxInt}
	s.handleMetricsPrometheus(whole)
	if whole.writes < 100 {
		t.Fatalf("full exposition took %d writes; the cut points below would not cover it", whole.writes)
	}
	for failAt := 1; failAt <= whole.writes; failAt += 29 {
		w := &cutWriter{header: http.Header{}, failAt: failAt}
		s.handleMetricsPrometheus(w)
		if w.writes != failAt {
			t.Errorf("connection cut at write %d of %d: %d writes attempted", failAt, whole.writes, w.writes)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				url := fmt.Sprintf("%s/nwc?x=%d&y=%d&l=60&w=60&n=4", ts.URL, (g*113+i*37)%1000, (g*59+i*211)%1000)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParseHelpers checks the scheme and measure parameters of the query
// string: names are case-insensitive and unknown names are refused.
func TestParseHelpers(t *testing.T) {
	base := url.Values{"x": {"1"}, "y": {"2"}, "l": {"10"}, "w": {"10"}, "n": {"3"}}
	with := func(k, v string) url.Values {
		vals := url.Values{}
		for bk, bv := range base {
			vals[bk] = bv
		}
		vals.Set(k, v)
		return vals
	}
	if _, err := queryFrom(with("scheme", "nope")); err == nil {
		t.Error("bad scheme accepted")
	}
	if q, err := queryFrom(with("scheme", "nwc+")); err != nil || q.Scheme != nwcq.SchemeNWCPlus {
		t.Error("case-insensitive scheme parse failed")
	}
	if _, err := queryFrom(with("measure", "nope")); err == nil {
		t.Error("bad measure accepted")
	}
	if q, err := queryFrom(with("measure", "WINDOW")); err != nil || q.Measure != nwcq.WindowDistance {
		t.Error("case-insensitive measure parse failed")
	}
}

// postJSON posts body as JSON and decodes the response into out.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestInsertDeleteEndpoints round-trips a point through POST /insert and
// POST /delete while GET /nwc traffic is continuously in flight, per the
// concurrency contract: mutations and queries need no external locking.
func TestInsertDeleteEndpoints(t *testing.T) {
	_, ts := testServer(t)

	// Background query load for the duration of the test.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	queryErrs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x := float64(100 + (g*37+i*13)%800)
				y := float64(100 + (g*53+i*29)%800)
				resp, err := http.Get(fmt.Sprintf("%s/nwc?x=%g&y=%g&l=60&w=60&n=3", ts.URL, x, y))
				if err != nil {
					queryErrs <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK {
					queryErrs <- fmt.Errorf("GET /nwc status %d", code)
					return
				}
			}
		}(g)
	}

	var ins struct {
		Inserted bool `json:"inserted"`
		Points   int  `json:"points"`
	}
	var del struct {
		Deleted bool `json:"deleted"`
		Points  int  `json:"points"`
	}
	for i := 0; i < 30; i++ {
		id := 1_000_000 + uint64(i)
		body := fmt.Sprintf(`{"x": %g, "y": %g, "id": %d}`, 400+float64(i), 400.5, id)
		if code := postJSON(t, ts.URL+"/insert", body, &ins); code != http.StatusOK {
			t.Fatalf("insert %d: status %d", i, code)
		}
		if !ins.Inserted {
			t.Fatalf("insert %d: inserted=false", i)
		}
		if i%2 == 0 {
			if code := postJSON(t, ts.URL+"/delete", body, &del); code != http.StatusOK {
				t.Fatalf("delete %d: status %d", i, code)
			}
			if !del.Deleted {
				t.Fatalf("delete %d: deleted=false", i)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-queryErrs:
		t.Fatal(err)
	default:
	}

	// 30 inserted, 15 deleted: net +15 over the seed 3000.
	if ins.Points < 3000 || del.Points < 3000 {
		t.Errorf("point counts went below seed: insert=%d delete=%d", ins.Points, del.Points)
	}
	var stats struct {
		Points int `json:"points"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Points != 3015 {
		t.Errorf("points = %d, want 3015", stats.Points)
	}

	// A surviving inserted point must be visible to queries.
	var out nwcResponse
	if code := getJSON(t, ts.URL+"/nwc?x=401&y=400.5&l=2&w=2&n=1", &out); code != http.StatusOK {
		t.Fatalf("nwc status %d", code)
	}
	if !out.Found {
		t.Error("inserted point not found by /nwc")
	}

	// Error paths.
	var errOut struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/insert", `{"x": "oops"}`, &errOut); code != http.StatusBadRequest {
		t.Errorf("malformed insert body: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/delete", `{"x": 1, "y": 2, "id": 99999999}`, &errOut); code != http.StatusNotFound {
		t.Errorf("delete of absent point: status %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/insert", `{"x": 1e999, "y": 0, "id": 1}`, &errOut); code != http.StatusBadRequest {
		t.Errorf("non-finite insert: status %d, want 400", code)
	}
}
