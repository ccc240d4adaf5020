package shard

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"nwcq"
	"nwcq/internal/histo"
	"nwcq/internal/metrics"
	"nwcq/internal/obs"
)

// Router-level observability. The router holds the same obs.Recorder a
// single index does and ends every routed query in the same Finish call
// (so a query fanned out to three shards still counts once, with its
// summed node visits), while storage-level state — page caches, WALs,
// full IWP rebuilds, node visits — is folded in from the shards'
// snapshots. Metrics() and WritePrometheus go through the shared
// snapshot builder and family table; this file adds only what a router
// has and an index does not: the routing counters, the phase
// histograms and the per-shard point gauge.

// Routed-query phases for latency attribution: scatter (per-shard local
// queries), border (cross-shard candidate fetches) and merge (candidate
// enumeration plus greedy merging). Every routed NWC/kNWC execution
// records its wall-clock split across the three, so a router tail spike
// is attributable to the phase that caused it.
const (
	phaseScatter = iota
	phaseBorder
	phaseMerge
	phaseCount
)

var phaseNames = [phaseCount]string{"scatter", "border", "merge"}

// routerCounters is the routing activity beside the shared recorder.
// All atomics; no lock touches the query path.
type routerCounters struct {
	// Local scatter queries issued, shards skipped by the MINDIST bound,
	// border fetches run, border points collected, and kNWC
	// certification reruns (fetch-bound doublings).
	shardQueries  metrics.Counter
	shardsPruned  metrics.Counter
	borderFetches metrics.Counter
	borderPoints  metrics.Counter
	fetchReruns   metrics.Counter
	// boundTightenings counts improvements published to the shared
	// scatter bound cell — evidence the parallel workers cooperated.
	boundTightenings metrics.Counter
	// inflight gauges shard queries currently running in scatter
	// workers (zero on the sequential path).
	inflight atomic.Int64
	// phase holds the scatter/border/merge latency histograms, recorded
	// once per routed NWC/kNWC execution (cache hits route nothing and
	// record nothing).
	phase [phaseCount]*histo.Histogram // seconds
}

func newRouterCounters() *routerCounters {
	m := &routerCounters{}
	for p := range m.phase {
		m.phase[p] = histo.Must(histo.LogBuckets(1e-6, 2, 24))
	}
	return m
}

// recorded describes a finished routed NWC (k = m = 0) or kNWC query to
// the recorder's Finish call.
func recorded(q nwcq.Query, k, m int) obs.Query {
	return obs.Query{
		X: q.X, Y: q.Y, Length: q.Length, Width: q.Width, N: q.N, K: k, M: m,
		Scheme:  q.Scheme,
		Measure: q.Measure,
	}
}

// RouterStats is a point-in-time copy of the routing counters.
type RouterStats struct {
	// ShardQueries counts local NWC/kNWC queries issued to shards by the
	// scatter phase; ShardsPruned counts shards the MINDIST bound let the
	// router skip entirely.
	ShardQueries uint64
	ShardsPruned uint64
	// BorderFetches counts border-fetch passes (windows straddling shard
	// boundaries), BorderPoints the candidate points they collected.
	BorderFetches uint64
	BorderPoints  uint64
	// FetchReruns counts kNWC certification retries: fetch-bound
	// doublings needed before the merged answer was provably exact.
	FetchReruns uint64
	// BoundTightenings counts improvements published to the shared
	// scatter bound cell by in-flight shard traversals (parallel
	// execution only).
	BoundTightenings uint64
}

// RouterStats returns the scatter-gather routing counters.
func (s *Sharded) RouterStats() RouterStats {
	return RouterStats{
		ShardQueries:     s.ctr.shardQueries.Value(),
		ShardsPruned:     s.ctr.shardsPruned.Value(),
		BorderFetches:    s.ctr.borderFetches.Value(),
		BorderPoints:     s.ctr.borderPoints.Value(),
		FetchReruns:      s.ctr.fetchReruns.Value(),
		BoundTightenings: s.ctr.boundTightenings.Value(),
	}
}

// Metrics returns one aggregated snapshot for the whole sharded
// backend: router-level query aggregates (each routed query counted
// once, with its summed node visits), plus the shards' storage state
// (page caches, WALs, full IWP rebuilds — the height-changing mutations
// only) summed, plus the routing counters.
func (s *Sharded) Metrics() nwcq.MetricsSnapshot {
	src := obs.Sources{Created: s.created, Subscriptions: s.SubscriptionStats()}
	for _, ix := range s.shards {
		src.AddShard(ix.Metrics())
	}
	if s.nwcCache != nil {
		st := s.nwcCache.Stats().Add(s.knwcCache.Stats())
		src.ResultCache = &st
	}
	out := s.rec.Snapshot(src)
	rs := s.RouterStats()
	out.Router = &nwcq.RouterMetrics{
		Shards:           len(s.shards),
		ShardQueries:     rs.ShardQueries,
		ShardsPruned:     rs.ShardsPruned,
		BorderFetches:    rs.BorderFetches,
		BorderPoints:     rs.BorderPoints,
		FetchReruns:      rs.FetchReruns,
		Parallelism:      s.parallelism(),
		InflightWorkers:  s.ctr.inflight.Load(),
		BoundTightenings: rs.BoundTightenings,
		Phases:           make(map[string]nwcq.RouterPhaseMetrics, phaseCount),
	}
	for p, name := range phaseNames {
		ph := s.ctr.phase[p].Snapshot()
		out.Router.Phases[name] = nwcq.RouterPhaseMetrics{
			Count:         ph.Count,
			LatencyMeanMs: ph.Mean() * 1e3,
			LatencyP50Ms:  ph.QuantileOr(0.50, 0) * 1e3,
			LatencyP95Ms:  ph.QuantileOr(0.95, 0) * 1e3,
			LatencyP99Ms:  ph.QuantileOr(0.99, 0) * 1e3,
		}
	}
	return out
}

// WritePrometheus renders the sharded backend's metrics in the
// Prometheus text format: every family a single index exposes, from the
// shared family table, then the router's own block.
func (s *Sharded) WritePrometheus(w io.Writer) error {
	pw := &metrics.PromWriter{W: w}
	snap := s.Metrics()
	s.rec.WritePrometheus(pw, snap, s.Len())

	rt := snap.Router
	pw.Gauge("nwcq_shards", "Number of index shards behind the router.", float64(rt.Shards))
	pw.Header("nwcq_shard_points", "gauge", "Points indexed per shard.")
	for i, ix := range s.shards {
		pw.Value("nwcq_shard_points", metrics.Labels{"shard", strconv.Itoa(i)}, float64(ix.Len()))
	}
	pw.Counter("nwcq_shard_queries_total", "Local scatter queries issued to shards.", float64(rt.ShardQueries))
	pw.Counter("nwcq_shards_pruned_total", "Shards skipped by the MINDIST bound.", float64(rt.ShardsPruned))
	pw.Counter("nwcq_border_fetches_total", "Border-fetch passes for boundary-straddling windows.", float64(rt.BorderFetches))
	pw.Counter("nwcq_border_points_total", "Candidate points collected by border fetches.", float64(rt.BorderPoints))
	pw.Counter("nwcq_fetch_reruns_total", "kNWC certification reruns (fetch-bound doublings).", float64(rt.FetchReruns))
	pw.Counter("nwcq_bound_tightenings_total", "Shared-bound improvements published by in-flight shard traversals.", float64(rt.BoundTightenings))
	pw.Gauge("nwcq_parallel_workers", "Configured scatter worker width (resolved; GOMAXPROCS when unset).", float64(rt.Parallelism))
	pw.Gauge("nwcq_parallel_inflight", "Shard queries currently running in scatter workers.", float64(rt.InflightWorkers))
	pw.Header("nwcq_router_phase_seconds", "histogram", "Routed-query wall time split by phase (scatter, border, merge).")
	for p, name := range phaseNames {
		pw.Histogram("nwcq_router_phase_seconds", metrics.Labels{"phase", name}, s.ctr.phase[p].Snapshot())
	}
	return pw.Err
}

// SlowQueryThreshold returns the shared slow-query threshold: the
// router's recorder and every shard carry the same one.
func (s *Sharded) SlowQueryThreshold() time.Duration { return s.rec.SlowThreshold() }

// SetSlowQueryThreshold adjusts the slow-query threshold on the router
// and every shard at runtime.
func (s *Sharded) SetSlowQueryThreshold(threshold time.Duration) {
	s.rec.SetSlowThreshold(threshold)
	for _, ix := range s.shards {
		ix.SetSlowQueryThreshold(threshold)
	}
}

// SlowQueries merges the router-level ring with the shards' local
// rings, newest first. Router entries carry Source "router" and cover
// the whole routed execution (scatter, border fetches and merging);
// shard entries are stamped "shard<i>" and cover that shard's local
// share, so one slow routed query is attributable to the shard that
// dominated it.
func (s *Sharded) SlowQueries() []nwcq.SlowQueryEntry {
	out := s.rec.SlowQueries()
	for i, ix := range s.shards {
		src := "shard" + strconv.Itoa(i)
		for _, e := range ix.SlowQueries() {
			e.Source = src
			out = append(out, e)
		}
	}
	obs.SortSlowQueries(out)
	return out
}
