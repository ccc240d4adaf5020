package nwcq

import (
	"context"
	"time"

	"nwcq/internal/core"
	"nwcq/internal/trace"
)

// Per-query structured tracing and the slow-query log.
//
// ExplainNWC and ExplainKNWC run a query with a trace recorder armed on
// the request's record and attached to its tree reader: every node visit,
// pruning decision and phase transition of the algorithm is attributed to
// the phase it happened in, with monotonic timestamps. The ordinary
// query path carries a nil recorder, so tracing costs it exactly one
// nil-check branch per instrumentation point — no clocks, no atomics, no
// allocation (see BenchmarkNWCTraceOff/BenchmarkNWCTraceOn).
//
// The slow-query log is a lock-free ring (internal/metrics.Ring, held by
// the index's obs.Recorder) of the most recent queries that exceeded a
// configurable latency threshold; recording is one atomic increment
// plus one pointer store, off the fast path entirely while the
// threshold is unset.

// The explain trace's types are declared once, beside the per-query
// record they render (internal/trace), and named here for the public API.
type (
	// PhaseTrace is one algorithm phase's share of a traced query.
	PhaseTrace = trace.PhaseTrace
	// TraceCounters itemises the pruning and routing decisions of a
	// traced query.
	TraceCounters = trace.TraceCounters
	// QueryTrace is the structured trace of one explained query.
	QueryTrace = trace.QueryTrace
)

// ExplainNWC answers an NWC query with tracing enabled, returning the
// result alongside its structured trace. The query still contributes to
// Metrics and the slow-query log like any other.
func (ix *Index) ExplainNWC(ctx context.Context, q Query) (Result, *QueryTrace, error) {
	ctx, tr := trace.Ensure(ctx)
	tr.Engine = trace.New()
	res, err := ix.NWCCtx(ctx, q)
	return res, explainTrace(tr, "nwc", q.Scheme, q.Measure, res.Stats), err
}

// ExplainKNWC answers a kNWC query with tracing enabled, returning the
// groups alongside the query's structured trace.
func (ix *Index) ExplainKNWC(ctx context.Context, q KQuery) (KResult, *QueryTrace, error) {
	ctx, tr := trace.Ensure(ctx)
	tr.Engine = trace.New()
	res, err := ix.KNWCCtx(ctx, q)
	return res, explainTrace(tr, "knwc", q.Scheme, q.Measure, res.Stats), err
}

// explainTrace renders an explained query's record, timed by its recorder.
func explainTrace(tr *trace.Record, kind string, scheme Scheme, measure Measure, st Stats) *QueryTrace {
	start, total := tr.Engine.Span()
	return tr.Trace(kind, scheme.String(), measure.String(), core.TraceWork(st), start, total)
}

// WithSlowQueryThreshold enables the slow-query log: every NWC/kNWC
// query slower than threshold is recorded in a fixed-size lock-free
// ring readable via SlowQueries (and GET /debug/slowlog on the server).
// Zero or negative leaves the log disabled, its default.
func WithSlowQueryThreshold(threshold time.Duration) BuildOption {
	return func(o *buildOptions) { o.slowThreshold = threshold }
}

// SetSlowQueryThreshold adjusts the slow-query threshold at runtime;
// zero or negative disables the log. Safe to call concurrently with
// queries.
func (ix *Index) SetSlowQueryThreshold(threshold time.Duration) {
	ix.rec.SetSlowThreshold(threshold)
}

// SlowQueryThreshold returns the current threshold, zero when the log
// is disabled.
func (ix *Index) SlowQueryThreshold() time.Duration { return ix.rec.SlowThreshold() }

// SlowQueries returns the retained slow-query log entries, newest
// first. Safe to call concurrently with queries.
func (ix *Index) SlowQueries() []SlowQueryEntry { return ix.rec.SlowQueries() }
