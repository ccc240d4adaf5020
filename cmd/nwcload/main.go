// Command nwcload drives an nwcserve instance with a configurable query
// mix and scores the run against service-level objectives.
//
//	nwcserve -data ca.csv -shards 4 &
//	nwcload -url http://localhost:8080 -duration 30s -warmup 5s \
//	    -mode open -rate 2000 -knwc-share 0.2 -mutate-share 0.05 \
//	    -slo 'nwc_p99<5ms@1krps,all_p999<50ms' -out BENCH_load.json
//	nwcload -url http://localhost:8080 -duration 30s -mutate-share 0.5 \
//	    -subs 8 -slo 'sub_p99<50ms'              # continuous-query delivery
//
// Closed-loop mode (-mode closed, the default) runs -workers requests
// in lock-step and measures service latency. Open-loop mode (-mode
// open) targets -rate arrivals per second — fixed spacing or a Poisson
// process (-arrival) — and measures each request from its intended
// arrival time, so a stalled server inflates the recorded tail instead
// of thinning the sample stream (the coordinated-omission correction).
//
// The run waits for the server's /readyz before starting (so WAL replay
// never counts against the SLO), warms up unrecorded, then measures.
// The report — throughput and p50/p95/p99/p999 per op class plus one
// verdict per objective — is printed and optionally archived as JSON
// with -out.
//
// Exit status: 0 when every SLO passed (or none were given), 1 when an
// objective failed, 2 on configuration or run errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"nwcq/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is nwcload over args, reporting to stdout and stderr; it returns
// the exit status. The configuration is checked in full before the
// /readyz gate, so a bad one fails at once whether or not a server is up.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nwcload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url     = fs.String("url", "http://localhost:8080", "server under test")
		mode    = fs.String("mode", "closed", "arrival model: closed (workers in lock-step) or open (fixed-rate arrivals)")
		rate    = fs.Float64("rate", 1000, "open loop: target arrivals per second")
		arrival = fs.String("arrival", "poisson", "open loop: inter-arrival gaps, poisson or fixed")
		workers = fs.Int("workers", 8, "closed loop: concurrent workers; open loop: max requests in flight")

		duration = fs.Duration("duration", 30*time.Second, "measured window")
		warmup   = fs.Duration("warmup", 5*time.Second, "unrecorded warmup before measuring")
		ready    = fs.Duration("ready-timeout", 30*time.Second, "how long to wait for /readyz (0 skips the gate)")

		window      = fs.Float64("window", 200, "query window side length")
		n           = fs.Int("n", 8, "objects per window (query parameter n)")
		k           = fs.Int("k", 3, "kNWC result groups (query parameter k)")
		m           = fs.Int("m", 1, "kNWC non-overlap parameter m")
		schemes     = fs.String("schemes", "", "comma-separated scheme rotation (e.g. 'NWC*,SRR'); empty = server default")
		knwcShare   = fs.Float64("knwc-share", 0.2, "fraction of ops that are kNWC queries")
		batchShare  = fs.Float64("batch-share", 0, "fraction of ops that are POST /batch/nwc requests")
		batchSize   = fs.Int("batch-size", 16, "queries per batch op")
		mutateShare = fs.Float64("mutate-share", 0, "fraction of ops that are insert/delete mutations")
		subs        = fs.Int("subs", 0, "standing-query SSE subscriptions held open for the run; each delivered frame records publish→notify latency under the 'sub' class (pair with -mutate-share)")
		hotShare    = fs.Float64("hot-share", 0, "fraction of query centers drawn from the Gaussian hot spot")
		hotSigma    = fs.Float64("hot-sigma", 250, "hot-spot standard deviation")
		seed        = fs.Int64("seed", 1, "op-stream seed (reproducible runs)")

		sloSpec = fs.String("slo", "", "comma-separated objectives, e.g. 'nwc_p99<5ms@1krps,all_p999<50ms'")
		sloFile = fs.String("slo-file", "", "JSON file of objectives (array of specs, or {\"slos\": [...]})")
		out     = fs.String("out", "", "archive the report as JSON (e.g. BENCH_load.json)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	slos, err := loadgen.ParseSLOs(*sloSpec)
	if err != nil {
		return fail(stderr, err)
	}
	if *sloFile != "" {
		fromFile, err := loadgen.LoadSLOFile(*sloFile)
		if err != nil {
			return fail(stderr, err)
		}
		slos = append(slos, fromFile...)
	}
	var schemeList []string
	if *schemes != "" {
		schemeList = strings.Split(*schemes, ",")
	}
	cfg := loadgen.Config{
		BaseURL:  *url,
		Mode:     *mode,
		Rate:     *rate,
		Poisson:  *arrival == "poisson",
		Workers:  *workers,
		Duration: *duration,
		Warmup:   *warmup,
		Subs:     *subs,
		Seed:     *seed,
		Profile: loadgen.Profile{
			Window:      *window,
			N:           *n,
			K:           *k,
			M:           *m,
			Schemes:     schemeList,
			KNWCShare:   *knwcShare,
			BatchShare:  *batchShare,
			BatchSize:   *batchSize,
			MutateShare: *mutateShare,
			HotShare:    *hotShare,
			HotSigma:    *hotSigma,
		},
	}
	if *mode == "open" && *arrival != "poisson" && *arrival != "fixed" {
		return fail(stderr, fmt.Errorf("-arrival %q, want poisson or fixed", *arrival))
	}
	if err := cfg.Validate(); err != nil {
		return fail(stderr, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ready > 0 {
		fmt.Fprintf(stderr, "waiting for %s/readyz (up to %v)\n", strings.TrimSuffix(*url, "/"), *ready)
		if err := loadgen.WaitReady(ctx, nil, *url, *ready); err != nil {
			return fail(stderr, err)
		}
	}

	fmt.Fprintf(stderr, "running: mode=%s duration=%v warmup=%v\n", *mode, *duration, *warmup)
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return fail(stderr, err)
	}
	passed := loadgen.Evaluate(slos, rep)

	printReport(stdout, rep)
	if *out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "report archived to %s\n", *out)
	}
	if !passed {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep *loadgen.Report) {
	fmt.Fprintf(w, "target %s, %s loop", rep.Target, rep.Mode)
	if rep.Mode == "open" {
		fmt.Fprintf(w, " (%s arrivals at %g rps)", rep.Arrival, rep.TargetRPS)
	}
	fmt.Fprintf(w, ", %gs measured after %gs warmup\n", rep.DurationSec, rep.WarmupSec)
	if rep.Dropped > 0 {
		fmt.Fprintf(w, "WARNING: %d scheduled arrivals never issued (server behind target rate)\n", rep.Dropped)
	}

	names := make([]string, 0, len(rep.Classes)+1)
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	names = append(names, "total")
	fmt.Fprintf(w, "%-8s %10s %8s %10s %9s %9s %9s %9s\n",
		"class", "count", "errors", "rps", "p50(ms)", "p95(ms)", "p99(ms)", "p999(ms)")
	for _, name := range names {
		c := rep.Total
		if name != "total" {
			c = rep.Classes[name]
		}
		fmt.Fprintf(w, "%-8s %10d %8d %10.1f %9.3f %9.3f %9.3f %9.3f\n",
			name, c.Count, c.Errors, c.ThroughputRPS,
			c.LatencyP50Ms, c.LatencyP95Ms, c.LatencyP99Ms, c.LatencyP999Ms)
	}
	for _, s := range rep.SLOs {
		verdict := "PASS"
		if !s.Passed {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "SLO %-28s %s  observed %.3fms vs %.3fms", s.Spec, verdict, s.ObservedMs, s.ThresholdMs)
		if s.Detail != "" {
			fmt.Fprintf(w, " (%s)", s.Detail)
		}
		fmt.Fprintln(w)
	}
}

// fail reports a configuration or run error and returns exit status 2.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "nwcload: %v\n", err)
	return 2
}
