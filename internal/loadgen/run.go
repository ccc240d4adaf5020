// Package loadgen is the SLO-driven load harness behind cmd/nwcload:
// it drives an nwcserve instance over HTTP with a configurable query
// mix, records latency per op class, and scores the run against parsed
// service-level objectives.
//
// Two arrival models are supported. The closed loop runs N workers in
// lock-step — each issues its next request when the previous response
// lands — which measures service latency but, like every closed-loop
// tool, coordinates with the server: a stall pauses the arrival stream
// itself, so stalls are under-sampled and the recorded tail looks
// flatteringly thin. The open loop fixes that the way wrk2 does: a
// scheduler emits intended arrival times at the target rate (fixed gaps
// or a Poisson process), workers pick them up, and each sample's
// latency is measured from the intended arrival, not the actual send.
// When the server falls behind, queued intents keep aging, so the delay
// the clients actually suffered lands in the histogram instead of being
// omitted — the coordinated-omission correction.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://localhost:8080".
	BaseURL string
	// Mode is "closed" (Workers in lock-step) or "open" (Rate arrivals/s
	// with Workers as the concurrency cap).
	Mode string
	// Rate is the open-loop target arrival rate per second.
	Rate float64
	// Poisson draws open-loop inter-arrival gaps from an exponential
	// distribution instead of fixed 1/Rate spacing.
	Poisson bool
	// Workers is the closed-loop width, and in open mode the maximum
	// number of requests in flight. 0 means 8.
	Workers int
	// Duration is the measured window; Warmup runs the same load first
	// without recording (cold caches and connection setup would skew
	// the tail).
	Duration, Warmup time.Duration
	// Profile is the query mix.
	Profile Profile
	// Subs opens that many standing-query SSE subscriptions
	// (GET /subscribe) for the whole run, each recording publish→notify
	// latency per delivered frame under the "sub" class. Pair with a
	// non-zero Profile.MutateShare — without mutations nothing publishes
	// and the subscribers only ever see their init frame.
	Subs int
	// Seed makes the generated op stream reproducible.
	Seed int64
	// Client overrides the HTTP client (tests); nil builds one sized to
	// Workers.
	Client *http.Client
}

// Validate reports a configuration error, nil when Run can start on
// the configuration. Run calls it first; a command calls it before it
// waits for the server, so a bad configuration never waits on one.
func (c Config) Validate() error {
	if c.BaseURL == "" {
		return errors.New("loadgen: BaseURL is required")
	}
	switch c.Mode {
	case "closed":
	case "open":
		if c.Rate <= 0 {
			return fmt.Errorf("loadgen: open loop needs a positive rate, got %g", c.Rate)
		}
	default:
		return fmt.Errorf("loadgen: mode %q, want open or closed", c.Mode)
	}
	if c.Workers < 0 {
		return fmt.Errorf("loadgen: negative workers")
	}
	if c.Subs < 0 {
		return fmt.Errorf("loadgen: negative subs")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("loadgen: negative warmup")
	}
	return c.Profile.Validate()
}

// WaitReady polls GET /readyz until it answers 200, the context ends,
// or timeout elapses. Connection errors count as not ready: the server
// may still be binding its listener or replaying its WAL.
func WaitReady(ctx context.Context, client *http.Client, baseURL string, timeout time.Duration) error {
	if client == nil {
		client = http.DefaultClient
	}
	deadline := time.Now().Add(timeout)
	url := strings.TrimSuffix(baseURL, "/") + "/readyz"
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s not ready after %v", url, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// issue sends one op and reports whether it failed (transport error or
// non-2xx status). The response body is drained so the connection is
// reused.
func issue(ctx context.Context, client *http.Client, baseURL string, op Op) bool {
	var body io.Reader
	if op.Body != "" {
		body = strings.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(ctx, op.Method, baseURL+op.Path, body)
	if err != nil {
		return true
	}
	if op.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return true
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < 200 || resp.StatusCode >= 300
}

// Run executes one load run and returns the measured report (SLO
// verdicts unfilled; see Evaluate). The context cancels the run early;
// whatever was measured so far is still reported.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers + 4,
			MaxIdleConnsPerHost: cfg.Workers + 4,
		}}
	}
	base := strings.TrimSuffix(cfg.BaseURL, "/")

	// Two recorders: workers write through the pointer, and the swap at
	// the end of warmup atomically starts the measured window.
	warm, meas := NewRecorder(), NewRecorder()
	var rec atomic.Pointer[Recorder]
	var measStart atomic.Int64 // UnixNano of the swap
	if cfg.Warmup > 0 {
		rec.Store(warm)
	} else {
		rec.Store(meas)
	}
	start := time.Now()
	if cfg.Warmup == 0 {
		measStart.Store(start.UnixNano())
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Warmup+cfg.Duration)
	defer cancel()
	if cfg.Warmup > 0 {
		swap := time.AfterFunc(cfg.Warmup, func() {
			measStart.Store(time.Now().UnixNano())
			rec.Store(meas)
		})
		defer swap.Stop()
	}

	ids := &atomic.Uint64{}
	var dropped atomic.Uint64
	var wg sync.WaitGroup

	// Standing-query subscribers ride alongside the request workers:
	// each holds one SSE stream open and records every delivered frame's
	// publish→notify latency (subscribe.go).
	for i := 0; i < cfg.Subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := cfg.Profile.NewGen(cfg.Seed+int64(i)*104729+31, ids)
			subscribeLoop(runCtx, client, base, gen, &rec)
		}(i)
	}

	switch cfg.Mode {
	case "closed":
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := cfg.Profile.NewGen(cfg.Seed+int64(w)*7919, ids)
				for runCtx.Err() == nil {
					op := gen.Next()
					opStart := time.Now()
					failed := issue(runCtx, client, base, op)
					if runCtx.Err() != nil {
						return // cancellation, not a server error
					}
					rec.Load().Record(op.Class, time.Since(opStart), failed)
				}
			}(w)
		}
	case "open":
		// The scheduler emits intended arrival instants; workers stamp
		// each sample against that instant. The buffer absorbs a server
		// running behind — intents queue and age instead of the stream
		// thinning out. Overflow and end-of-run backlog are counted, not
		// hidden: every scheduled-but-unissued arrival is one the server
		// definitively could not absorb.
		capHint := int(cfg.Rate * (cfg.Warmup + cfg.Duration).Seconds())
		if capHint < 1024 {
			capHint = 1024
		}
		if capHint > 1<<20 {
			capHint = 1 << 20
		}
		sched := make(chan time.Time, capHint)
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(sched)
			next := time.Now()
			for {
				if d := time.Until(next); d > 0 {
					select {
					case <-runCtx.Done():
						return
					case <-time.After(d):
					}
				} else if runCtx.Err() != nil {
					return
				}
				select {
				case sched <- next:
				default:
					dropped.Add(1)
				}
				gap := 1 / cfg.Rate
				if cfg.Poisson {
					gap = rng.ExpFloat64() / cfg.Rate
				}
				next = next.Add(time.Duration(gap * float64(time.Second)))
			}
		}()
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := cfg.Profile.NewGen(cfg.Seed+int64(w)*7919, ids)
				for intended := range sched {
					if runCtx.Err() != nil {
						dropped.Add(1) // backlog the run's end cut off
						continue
					}
					op := gen.Next()
					failed := issue(runCtx, client, base, op)
					if runCtx.Err() != nil {
						dropped.Add(1)
						continue
					}
					rec.Load().Record(op.Class, time.Since(intended), failed)
				}
			}(w)
		}
	}
	wg.Wait()

	elapsed := time.Duration(time.Now().UnixNano() - measStart.Load())
	if elapsed > cfg.Duration {
		elapsed = cfg.Duration
	}
	rep := &Report{
		Target:      cfg.BaseURL,
		Mode:        cfg.Mode,
		Workers:     cfg.Workers,
		DurationSec: cfg.Duration.Seconds(),
		WarmupSec:   cfg.Warmup.Seconds(),
		StartedAt:   start.UTC().Format(time.RFC3339),
		Dropped:     dropped.Load(),
	}
	if cfg.Mode == "open" {
		rep.TargetRPS = cfg.Rate
		rep.Arrival = "fixed"
		if cfg.Poisson {
			rep.Arrival = "poisson"
		}
	}
	rep.Total, rep.Classes = meas.Snapshot(elapsed)
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}
