package loadgen

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwcq"
	"nwcq/internal/server"
)

// liveBackend serves a real index through the real handlers, so a run
// exercises the same wire format production does.
func liveBackend(t *testing.T) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pts := make([]nwcq.Point, 2000)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: uint64(i + 1)}
	}
	idx, err := nwcq.Build(pts, nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(idx, idx).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRunClosedLoop(t *testing.T) {
	ts := liveBackend(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Mode:     "closed",
		Workers:  4,
		Duration: 500 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     1,
		Profile: Profile{
			Window:      300,
			KNWCShare:   0.3,
			BatchShare:  0.1,
			BatchSize:   4,
			MutateShare: 0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Count == 0 {
		t.Fatal("no samples measured")
	}
	if rep.Total.Errors != 0 {
		t.Fatalf("%d errors against a healthy server", rep.Total.Errors)
	}
	if rep.Total.ThroughputRPS <= 0 {
		t.Errorf("throughput = %g", rep.Total.ThroughputRPS)
	}
	for _, class := range []string{ClassNWC, ClassKNWC} {
		c, ok := rep.Classes[class]
		if !ok || c.Count == 0 {
			t.Errorf("class %s missing from report: %+v", class, rep.Classes)
			continue
		}
		if c.LatencyP50Ms <= 0 || c.LatencyP99Ms < c.LatencyP50Ms {
			t.Errorf("%s quantiles p50=%g p99=%g", class, c.LatencyP50Ms, c.LatencyP99Ms)
		}
	}
	if rep.Mode != "closed" || rep.Workers != 4 {
		t.Errorf("report config echo %+v", rep)
	}

	// A deliberately unmeetable objective must fail the report.
	slos, err := ParseSLOs("nwc_p50<1ns")
	if err != nil {
		t.Fatal(err)
	}
	if Evaluate(slos, rep) || rep.Passed {
		t.Error("unmeetable objective passed")
	}
	// And a trivially loose one passes the same report.
	slos, err = ParseSLOs("all_p999<10m")
	if err != nil {
		t.Fatal(err)
	}
	if !Evaluate(slos, rep) {
		t.Errorf("loose objective failed: %+v", rep.SLOs)
	}
}

// stallServer answers every request in answer time but fully
// serialized: capacity is 1/answer requests per second no matter how
// many arrive concurrently — a stand-in for a stalled backend.
func stallServer(t *testing.T, answer time.Duration) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(answer)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"found": false}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestOpenLoopCoordinatedOmission is the harness's reason to exist:
// against a server that serializes 20ms answers, a closed loop records
// ~20ms per request — each worker politely waits, so the stall never
// shows in the tail. The open loop keeps scheduling arrivals at the
// target rate and measures from the intended arrival time, so the
// queueing delay real clients would suffer lands in the histogram. The
// open-loop p99 must come out several times the closed-loop p99 on the
// same server.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	const answer = 20 * time.Millisecond

	closedRep, err := Run(context.Background(), Config{
		BaseURL:  stallServer(t, answer).URL,
		Mode:     "closed",
		Workers:  1,
		Duration: 600 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if closedRep.Total.Count == 0 {
		t.Fatal("closed loop measured nothing")
	}
	// The stall must be seen — no answer comes back before the service time
	// is up — but how far past it the slowest one lands is the machine's
	// business: a busy box stretches a 20ms sleep (a [15, 60] ms window
	// failed under load), so there is no wall-clock ceiling; the open loop
	// below is held to this tail as this run measured it, ~800 ms against
	// three times ~28.
	closedP99 := closedRep.Total.LatencyP99Ms
	if closedP99 < 15 {
		t.Fatalf("closed-loop p99 = %gms, under the 20ms service time", closedP99)
	}

	// 200 arrivals/s against a 50/s server: the backlog grows all run.
	openRep, err := Run(context.Background(), Config{
		BaseURL:  stallServer(t, answer).URL,
		Mode:     "open",
		Rate:     200,
		Workers:  4,
		Duration: time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if openRep.Total.Count == 0 {
		t.Fatal("open loop measured nothing")
	}
	openP99 := openRep.Total.LatencyP99Ms
	if openP99 < 3*closedP99 {
		t.Errorf("open-loop p99 = %gms, closed-loop p99 = %gms: stall not reflected in the tail (coordinated omission)",
			openP99, closedP99)
	}
	// The server definitively could not absorb the offered rate; the
	// report must say so rather than silently thinning the load.
	if openRep.Dropped == 0 {
		t.Error("open loop dropped nothing despite a 4x overload")
	}
}

// TestOpenLoopKeepsUp: against a server that keeps up with the offered
// rate, open-loop latencies stay near the true service time — the
// coordinated-omission correction only inflates the tail when there is
// an actual backlog to account for.
func TestOpenLoopKeepsUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"found": false}`))
	}))
	t.Cleanup(ts.Close)
	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Mode:     "open",
		Rate:     100,
		Poisson:  true,
		Workers:  8,
		Duration: 500 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Count == 0 {
		t.Fatal("no samples measured")
	}
	if rep.Arrival != "poisson" || rep.TargetRPS != 100 {
		t.Errorf("report config echo %+v", rep)
	}
	if rep.Total.LatencyP50Ms > 100 {
		t.Errorf("p50 = %gms against an idle local server", rep.Total.LatencyP50Ms)
	}
}

func TestWaitReady(t *testing.T) {
	var ready atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !ready.Load() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)

	if err := WaitReady(context.Background(), nil, ts.URL, 100*time.Millisecond); err == nil {
		t.Error("not-ready server reported ready")
	}
	time.AfterFunc(100*time.Millisecond, func() { ready.Store(true) })
	if err := WaitReady(context.Background(), nil, ts.URL, 5*time.Second); err != nil {
		t.Errorf("ready server reported not ready: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	base := func() Config {
		return Config{BaseURL: "http://x", Mode: "closed", Duration: time.Second}
	}
	if err := func() error { c := base(); return c.Validate() }(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.BaseURL = "" },
		func(c *Config) { c.Mode = "zigzag" },
		func(c *Config) { c.Mode = "open"; c.Rate = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Warmup = -time.Second },
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.Profile.KNWCShare = 2 },
	}
	for i, mutate := range bads {
		c := base()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
