package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nwcq"
)

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReadyzEndpoint: without a health gate /readyz is always 200; with
// one it answers 503 until SetReady(true) and follows later flips, so a
// load balancer never routes to a server still replaying its WAL. The
// boot handler nwcserve listens with while the backend opens shares the
// gate: liveness 200, readiness and every other path 503, then the flip.
func TestReadyzEndpoint(t *testing.T) {
	_, ts := testServer(t)
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz without gate: status %d, want 200", code)
	}

	idx, err := nwcq.Build([]nwcq.Point{{X: 1, Y: 1, ID: 1}, {X: 2, Y: 2, ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHealth()
	gated := httptest.NewServer(New(idx, idx, WithHealth(h)).Handler())
	t.Cleanup(gated.Close)
	boot := httptest.NewServer(BootHandler(h))
	t.Cleanup(boot.Close)

	for path, want := range map[string]int{
		"/healthz":                 http.StatusOK,
		"/readyz":                  http.StatusServiceUnavailable,
		"/metrics":                 http.StatusServiceUnavailable,
		"/nwc?x=1&y=1&l=2&w=2&n=1": http.StatusServiceUnavailable,
	} {
		if code := getStatus(t, boot.URL+path); code != want {
			t.Errorf("boot window %s: status %d, want %d", path, code, want)
		}
	}

	if code := getStatus(t, gated.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("not ready: status %d, want 503", code)
	}
	// Liveness stays up regardless of readiness.
	if code := getStatus(t, gated.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz while not ready: status %d, want 200", code)
	}
	h.SetReady(true)
	for _, base := range []string{gated.URL, boot.URL} {
		if code := getStatus(t, base+"/readyz"); code != http.StatusOK {
			t.Errorf("ready: status %d, want 200", code)
		}
	}
	h.SetReady(false)
	if code := getStatus(t, gated.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readiness revoked: status %d, want 503", code)
	}
}

// syncBuffer makes a bytes.Buffer safe to share between the handler
// goroutines writing log records and the test reading them back.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) Lines() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	s := strings.TrimSpace(sb.b.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// queryLogRecord mirrors the wide-event record's fields of interest.
type queryLogRecord struct {
	Msg        string `json:"msg"`
	Op         string `json:"op"`
	Scheme     string `json:"scheme"`
	Cache      string `json:"cache"`
	DurationNs int64  `json:"duration_ns"`
	Found      bool   `json:"found"`
	K          int    `json:"k"`
	M          int    `json:"m"`
	Phases     []struct {
		Name       string `json:"name"`
		NodeVisits uint64 `json:"node_visits"`
	} `json:"phases"`
	Router *struct {
		ShardsQueried int   `json:"shards_queried"`
		ShardsPruned  int   `json:"shards_pruned"`
		ScatterNs     int64 `json:"scatter_ns"`
	} `json:"router"`
}

func decodeQueryLog(t *testing.T, lines []string) []queryLogRecord {
	t.Helper()
	out := make([]queryLogRecord, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &out[i]); err != nil {
			t.Fatalf("record %d: %v\n%s", i, err, line)
		}
		if out[i].Msg != "query" {
			t.Fatalf("record %d: msg = %q", i, out[i].Msg)
		}
	}
	return out
}

// TestQueryLogWideEvents drives a single-index server with the sampled
// query log at 1-in-1 and checks each record is one complete wide
// event: operation, cache outcome and the engine phase breakdown.
func TestQueryLogWideEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]nwcq.Point, 2000)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
	}
	idx, err := nwcq.Build(pts, nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	var sb syncBuffer
	logger := slog.New(slog.NewJSONHandler(&sb, nil))
	ts := httptest.NewServer(New(idx, idx, WithQueryLog(logger, 1)).Handler())
	t.Cleanup(ts.Close)

	var tmp nwcResponse
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2&m=1", &struct{}{})

	recs := decodeQueryLog(t, sb.Lines())
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	nwc, knwc := recs[0], recs[1]
	if nwc.Op != "nwc" || knwc.Op != "knwc" {
		t.Fatalf("ops = %q, %q", nwc.Op, knwc.Op)
	}
	if !nwc.Found || nwc.DurationNs <= 0 || nwc.Scheme == "" {
		t.Errorf("nwc record incomplete: %+v", nwc)
	}
	if nwc.Cache != "off" {
		t.Errorf("cache outcome = %q, want off (no result cache configured)", nwc.Cache)
	}
	if len(nwc.Phases) == 0 {
		t.Error("nwc record carries no engine phase breakdown")
	}
	var visits uint64
	for _, p := range nwc.Phases {
		visits += p.NodeVisits
	}
	if visits == 0 {
		t.Error("phase breakdown reports zero node visits")
	}
	if nwc.Router != nil {
		t.Error("router block on a single-index backend")
	}
	if knwc.K != 2 || knwc.M != 1 {
		t.Errorf("knwc k/m = %d/%d, want 2/1", knwc.K, knwc.M)
	}

	// Explained and temporal requests run the same path: their events
	// carry the cache outcome ("bypass": these kinds never consult the
	// cache) and the phase split of the recorder that ran.
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4&explain=1", &tmp)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2&m=1&explain=1", &struct{}{})
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4&as_of_lsn=0", &tmp)
	recs = decodeQueryLog(t, sb.Lines())
	if len(recs) != 5 {
		t.Fatalf("%d records, want 5", len(recs))
	}
	for i, name := range []string{"nwc explain", "knwc explain", "nwc as_of_lsn"} {
		rec := recs[2+i]
		if rec.Cache != "bypass" {
			t.Errorf("%s: cache outcome = %q, want bypass", name, rec.Cache)
		}
		if len(rec.Phases) == 0 {
			t.Errorf("%s: record carries no engine phase breakdown", name)
		}
	}
}

// TestQueryLogSampling checks 1-in-N sampling: with n=3 requests
// 1, 4, 7, ... are logged, the rest never allocate an event.
func TestQueryLogSampling(t *testing.T) {
	idx, err := nwcq.Build([]nwcq.Point{{X: 1, Y: 1, ID: 1}, {X: 2, Y: 2, ID: 2}, {X: 3, Y: 3, ID: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var sb syncBuffer
	logger := slog.New(slog.NewJSONHandler(&sb, nil))
	ts := httptest.NewServer(New(idx, idx, WithQueryLog(logger, 3)).Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 7; i++ {
		var tmp nwcResponse
		getJSON(t, ts.URL+"/nwc?x=2&y=2&l=6&w=6&n=2", &tmp)
	}
	if got := len(sb.Lines()); got != 3 {
		t.Errorf("%d records for 7 requests at 1-in-3, want 3", got)
	}
}

// TestQueryLogSharded checks the router fills the record's attribution
// block: a routed query's record carries shard fan-out counts and the
// scatter/border/merge phase split instead of engine phases — for a plain
// NWC, an explained one and a kNWC alike. An explained routed query's
// trace is rendered from the same record, so its border-fetch and
// border-merge phases are the block's border_ns and merge_ns exactly.
func TestQueryLogSharded(t *testing.T) {
	var sb syncBuffer
	logger := slog.New(slog.NewJSONHandler(&sb, nil))
	_, ts := shardedServer(t, WithQueryLog(logger, 1))

	var tmp nwcResponse
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4", &tmp)
	var explained struct {
		Trace struct {
			Phases []struct {
				Phase      string `json:"phase"`
				DurationNs int64  `json:"duration_ns"`
			} `json:"phases"`
		} `json:"trace"`
	}
	getJSON(t, ts.URL+"/nwc?x=500&y=500&l=80&w=80&n=4&explain=1", &explained)
	getJSON(t, ts.URL+"/knwc?x=500&y=500&l=80&w=80&n=3&k=2&m=1", &struct{}{})

	lines := sb.Lines()
	recs := decodeQueryLog(t, lines)
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	for i, name := range []string{"nwc", "nwc explain", "knwc"} {
		rec := recs[i]
		if rec.Router == nil {
			t.Fatalf("%s: routed query record has no router block", name)
		}
		if rec.Router.ShardsQueried < 1 || rec.Router.ShardsQueried > 4 {
			t.Errorf("%s: shards_queried = %d", name, rec.Router.ShardsQueried)
		}
		if rec.Router.ShardsQueried+rec.Router.ShardsPruned != 4 {
			t.Errorf("%s: queried %d + pruned %d != 4 shards",
				name, rec.Router.ShardsQueried, rec.Router.ShardsPruned)
		}
		if rec.Router.ScatterNs <= 0 {
			t.Errorf("%s: scatter_ns = %d", name, rec.Router.ScatterNs)
		}
		if len(rec.Phases) != 0 {
			t.Errorf("%s: routed record carries engine phases; router split expected instead", name)
		}
	}
	if recs[1].Cache != "bypass" || recs[2].K != 2 {
		t.Errorf("explained record's cache %q, kNWC record's k %d", recs[1].Cache, recs[2].K)
	}

	var block struct {
		Router struct {
			BorderFetches int   `json:"border_fetches"`
			BorderNs      int64 `json:"border_ns"`
			MergeNs       int64 `json:"merge_ns"`
		} `json:"router"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &block); err != nil {
		t.Fatal(err)
	}
	if block.Router.BorderFetches == 0 {
		t.Fatal("a query on the shards' seam fetched no border")
	}
	phase := map[string]int64{}
	for _, p := range explained.Trace.Phases {
		phase[p.Phase] = p.DurationNs
	}
	if phase["border-fetch"] != block.Router.BorderNs || phase["border-merge"] != block.Router.MergeNs || block.Router.MergeNs <= 0 {
		t.Errorf("trace border-fetch %d ns, border-merge %d ns; record border_ns %d, merge_ns %d",
			phase["border-fetch"], phase["border-merge"], block.Router.BorderNs, block.Router.MergeNs)
	}
}
