package shard

import (
	"errors"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"nwcq"
	"nwcq/internal/metrics"
)

// Router-level observability. Latency and error aggregates are recorded
// once per routed query at the router (so a query fanned out to three
// shards still counts once), while storage-level state — page caches,
// WALs, full IWP rebuilds, node visits — is summed across the shards'
// snapshots. Metrics() folds both into one nwcq.MetricsSnapshot, and
// WritePrometheus renders the same families a single index exposes plus
// the nwcq_shard_* routing extras.

type rKind int

const (
	rNWC rKind = iota
	rKNWC
	rNearest
	rWindow
	rInsert
	rDelete
	rKindCount
)

var rKindNames = [rKindCount]string{"nwc", "knwc", "nearest", "window", "insert", "delete"}

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

// routerMetrics mirrors the single-index queryMetrics shape, plus the
// routing counters. All atomics; no lock touches the query path.
type routerMetrics struct {
	queries  [rKindCount]metrics.Counter
	errors   [rKindCount]metrics.Counter
	latency  [rKindCount]*metrics.Histogram // seconds
	visits   [rKindCount]*metrics.Histogram // summed node visits per routed query
	byScheme [16]metrics.Counter

	// Routing activity: local scatter queries issued, shards skipped by
	// the MINDIST bound, border fetches run, border points collected,
	// and kNWC certification reruns (fetch-bound doublings).
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
	phase [phaseCount]*metrics.Histogram // seconds

	// slow is the router-level slow-query ring: whole routed queries
	// (end-to-end, including scatter, border fetches and merging) that
	// exceeded the shared threshold, alongside the per-shard rings that
	// record each shard's local share.
	slow *metrics.Ring[nwcq.SlowQueryEntry]
}

func newRouterMetrics() *routerMetrics {
	m := &routerMetrics{slow: metrics.NewRing[nwcq.SlowQueryEntry](slowLogSize)}
	for k := range m.latency {
		m.latency[k] = metrics.MustHistogram(metrics.ExponentialBounds(1e-6, 2, 24))
		m.visits[k] = metrics.MustHistogram(metrics.ExponentialBounds(1, 2, 24))
	}
	for p := range m.phase {
		m.phase[p] = metrics.MustHistogram(metrics.ExponentialBounds(1e-6, 2, 24))
	}
	return m
}

// slowLogSize matches the single-index ring size (nwcq.slowLogSize).
const slowLogSize = 128

func schemeBits(s nwcq.Scheme) int {
	srr, dip, dep, iwp := s.Flags()
	i := 0
	if srr {
		i |= 1
	}
	if dip {
		i |= 2
	}
	if dep {
		i |= 4
	}
	if iwp {
		i |= 8
	}
	return i
}

func (m *routerMetrics) observe(kind rKind, scheme nwcq.Scheme, elapsed time.Duration, visits uint64, err error) {
	m.queries[kind].Inc()
	if err != nil {
		m.errors[kind].Inc()
	}
	m.latency[kind].Observe(elapsed.Seconds())
	if kind == rNWC || kind == rKNWC {
		m.visits[kind].Observe(float64(visits))
		m.byScheme[schemeBits(scheme)].Inc()
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
		ShardQueries:     s.obs.shardQueries.Value(),
		ShardsPruned:     s.obs.shardsPruned.Value(),
		BorderFetches:    s.obs.borderFetches.Value(),
		BorderPoints:     s.obs.borderPoints.Value(),
		FetchReruns:      s.obs.fetchReruns.Value(),
		BoundTightenings: s.obs.boundTightenings.Value(),
	}
}

// Metrics returns one aggregated snapshot for the whole sharded
// backend: router-level query aggregates (each routed query counted
// once, with its summed node visits), plus the shards' storage state
// (page caches, WALs, full IWP rebuilds — the height-changing mutations
// only) summed, plus the routing counters.
func (s *Sharded) Metrics() nwcq.MetricsSnapshot {
	m := s.obs
	now := time.Now()
	out := nwcq.MetricsSnapshot{
		CollectedAt:          now,
		UptimeSeconds:        now.Sub(s.created).Seconds(),
		Build:                metrics.Build(),
		Queries:              make(map[string]nwcq.QueryKindMetrics, int(rKindCount)),
		SchemeCounts:         make(map[string]uint64),
		CumulativeNodeVisits: s.IOStats(),
	}
	for k := rKind(0); k < rKindCount; k++ {
		lat := m.latency[k].Snapshot()
		vis := m.visits[k].Snapshot()
		km := nwcq.QueryKindMetrics{
			Count:         m.queries[k].Value(),
			Errors:        m.errors[k].Value(),
			LatencyMeanMs: lat.Mean() * 1e3,
			LatencyP50Ms:  lat.QuantileOr(0.50, 0) * 1e3,
			LatencyP95Ms:  lat.QuantileOr(0.95, 0) * 1e3,
			LatencyP99Ms:  lat.QuantileOr(0.99, 0) * 1e3,
		}
		if k == rNWC || k == rKNWC {
			km.NodeVisitsMean = vis.Mean()
			km.NodeVisitsP50 = vis.QuantileOr(0.50, 0)
			km.NodeVisitsP95 = vis.QuantileOr(0.95, 0)
			km.NodeVisitsP99 = vis.QuantileOr(0.99, 0)
		}
		out.Queries[rKindNames[k]] = km
	}
	for i := range m.byScheme {
		if n := m.byScheme[i].Value(); n > 0 {
			out.SchemeCounts[nwcq.NewScheme(i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0).String()] += n
		}
	}
	var pc *nwcq.PageCacheMetrics
	var wal *nwcq.WALMetrics
	for _, ix := range s.shards {
		snap := ix.Metrics()
		out.IWPRebuilds += snap.IWPRebuilds
		if p := snap.PageCache; p != nil {
			if pc == nil {
				pc = &nwcq.PageCacheMetrics{}
			}
			pc.Reads += p.Reads
			pc.Writes += p.Writes
			pc.Hits += p.Hits
			pc.Misses += p.Misses
			pc.Evictions += p.Evictions
			pc.Coalesced += p.Coalesced
			pc.Syncs += p.Syncs
		}
		if w := snap.WAL; w != nil {
			if wal == nil {
				wal = &nwcq.WALMetrics{SyncPolicy: w.SyncPolicy}
			}
			wal.Appends += w.Appends
			wal.AppendBytes += w.AppendBytes
			wal.Fsyncs += w.Fsyncs
			wal.Rotations += w.Rotations
			wal.SegmentsRecycled += w.SegmentsRecycled
			wal.Checkpoints += w.Checkpoints
			wal.RecordsReplayed += w.RecordsReplayed
			// Per-shard LSN streams are independent; report the largest so
			// the gauge still moves with write activity.
			if w.AppendedLSN > wal.AppendedLSN {
				wal.AppendedLSN = w.AppendedLSN
			}
			if w.DurableLSN > wal.DurableLSN {
				wal.DurableLSN = w.DurableLSN
			}
			if w.CommittedLSN > wal.CommittedLSN {
				wal.CommittedLSN = w.CommittedLSN
			}
			if w.ReplicaLSN > wal.ReplicaLSN {
				wal.ReplicaLSN = w.ReplicaLSN
			}
		}
	}
	if pc != nil {
		if total := pc.Hits + pc.Misses; total > 0 {
			pc.HitRate = float64(pc.Hits) / float64(total)
		}
		out.PageCache = pc
	}
	out.WAL = wal
	rs := s.RouterStats()
	out.Router = &nwcq.RouterMetrics{
		Shards:           len(s.shards),
		ShardQueries:     rs.ShardQueries,
		ShardsPruned:     rs.ShardsPruned,
		BorderFetches:    rs.BorderFetches,
		BorderPoints:     rs.BorderPoints,
		FetchReruns:      rs.FetchReruns,
		Parallelism:      s.parallelism(),
		InflightWorkers:  m.inflight.Load(),
		BoundTightenings: rs.BoundTightenings,
		Phases:           make(map[string]nwcq.RouterPhaseMetrics, phaseCount),
	}
	for p := 0; p < phaseCount; p++ {
		ph := m.phase[p].Snapshot()
		out.Router.Phases[phaseNames[p]] = nwcq.RouterPhaseMetrics{
			Count:         ph.Count,
			LatencyMeanMs: ph.Mean() * 1e3,
			LatencyP50Ms:  ph.QuantileOr(0.50, 0) * 1e3,
			LatencyP95Ms:  ph.QuantileOr(0.95, 0) * 1e3,
			LatencyP99Ms:  ph.QuantileOr(0.99, 0) * 1e3,
		}
	}
	if c := s.rcache; c != nil {
		st := c.stats()
		rc := &nwcq.ResultCacheMetrics{
			Hits:          st.Hits,
			Misses:        st.Misses,
			Coalesced:     st.Coalesced,
			Invalidations: st.Invalidations,
			Entries:       st.Entries,
		}
		if total := rc.Hits + rc.Misses; total > 0 {
			rc.HitRate = float64(rc.Hits) / float64(total)
		}
		out.ResultCache = rc
	}
	ss := s.SubscriptionStats()
	out.Subscriptions = &ss
	return out
}

// WritePrometheus renders the sharded backend's metrics in the
// Prometheus text format: the same families a single index exposes
// (from the router-level aggregates and the summed shard storage
// counters) plus nwcq_shard_* routing families.
func (s *Sharded) WritePrometheus(w io.Writer) error {
	m := s.obs
	pw := &metrics.PromWriter{W: w}
	pw.BuildInfoProm()
	pw.Header("nwcq_queries_total", "counter", "Queries served, by operation kind.")
	for k := rKind(0); k < rKindCount; k++ {
		pw.Value("nwcq_queries_total", metrics.Labels{"kind", rKindNames[k]}, float64(m.queries[k].Value()))
	}
	pw.Header("nwcq_query_errors_total", "counter", "Failed queries, by operation kind.")
	for k := rKind(0); k < rKindCount; k++ {
		pw.Value("nwcq_query_errors_total", metrics.Labels{"kind", rKindNames[k]}, float64(m.errors[k].Value()))
	}
	pw.Header("nwcq_query_latency_seconds", "histogram", "Query latency, by operation kind.")
	for k := rKind(0); k < rKindCount; k++ {
		pw.Histogram("nwcq_query_latency_seconds", metrics.Labels{"kind", rKindNames[k]}, m.latency[k].Snapshot())
	}
	pw.Header("nwcq_query_node_visits", "histogram", "Per-query node visits summed across shards (nwc and knwc only).")
	for _, k := range []rKind{rNWC, rKNWC} {
		pw.Histogram("nwcq_query_node_visits", metrics.Labels{"kind", rKindNames[k]}, m.visits[k].Snapshot())
	}
	pw.Header("nwcq_scheme_queries_total", "counter", "NWC/kNWC queries, by resolved optimisation scheme.")
	schemes := make(map[string]uint64)
	for i := range m.byScheme {
		if n := m.byScheme[i].Value(); n > 0 {
			schemes[nwcq.NewScheme(i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0).String()] += n
		}
	}
	for _, name := range metrics.SortedKeys(schemes) {
		pw.Value("nwcq_scheme_queries_total", metrics.Labels{"scheme", name}, float64(schemes[name]))
	}
	pw.Header("nwcq_node_visits_total", "counter", "Cumulative node visits summed over all shards.")
	pw.Value("nwcq_node_visits_total", nil, float64(s.IOStats()))
	pw.Header("nwcq_index_points", "gauge", "Points currently indexed, summed over all shards.")
	pw.Value("nwcq_index_points", nil, float64(s.Len()))
	pw.Header("nwcq_uptime_seconds", "gauge", "Seconds since the sharded frontend was built or opened.")
	pw.Value("nwcq_uptime_seconds", nil, time.Since(s.created).Seconds())

	pw.Header("nwcq_shards", "gauge", "Number of index shards behind the router.")
	pw.Value("nwcq_shards", nil, float64(len(s.shards)))
	pw.Header("nwcq_shard_points", "gauge", "Points indexed per shard.")
	for i, ix := range s.shards {
		pw.Value("nwcq_shard_points", metrics.Labels{"shard", strconv.Itoa(i)}, float64(ix.Len()))
	}
	rs := s.RouterStats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"nwcq_shard_queries_total", "Local scatter queries issued to shards.", rs.ShardQueries},
		{"nwcq_shards_pruned_total", "Shards skipped by the MINDIST bound.", rs.ShardsPruned},
		{"nwcq_border_fetches_total", "Border-fetch passes for boundary-straddling windows.", rs.BorderFetches},
		{"nwcq_border_points_total", "Candidate points collected by border fetches.", rs.BorderPoints},
		{"nwcq_fetch_reruns_total", "kNWC certification reruns (fetch-bound doublings).", rs.FetchReruns},
		{"nwcq_bound_tightenings_total", "Shared-bound improvements published by in-flight shard traversals.", rs.BoundTightenings},
	} {
		pw.Header(c.name, "counter", c.help)
		pw.Value(c.name, nil, float64(c.v))
	}
	pw.Header("nwcq_router_phase_seconds", "histogram", "Routed-query wall time split by phase (scatter, border, merge).")
	for p := 0; p < phaseCount; p++ {
		pw.Histogram("nwcq_router_phase_seconds", metrics.Labels{"phase", phaseNames[p]}, m.phase[p].Snapshot())
	}
	pw.Header("nwcq_slow_queries_total", "counter", "Routed queries that exceeded the slow-query threshold.")
	pw.Value("nwcq_slow_queries_total", nil, float64(m.slow.Recorded()))
	pw.Header("nwcq_parallel_workers", "gauge", "Configured scatter worker width (resolved; GOMAXPROCS when unset).")
	pw.Value("nwcq_parallel_workers", nil, float64(s.parallelism()))
	pw.Header("nwcq_parallel_inflight", "gauge", "Shard queries currently running in scatter workers.")
	pw.Value("nwcq_parallel_inflight", nil, float64(m.inflight.Load()))
	if c := s.rcache; c != nil {
		st := c.stats()
		for _, cc := range []struct {
			name, help string
			v          uint64
		}{
			{"nwcq_result_cache_hits_total", "Query result cache hits.", st.Hits},
			{"nwcq_result_cache_misses_total", "Query result cache misses (including stale-generation bypasses).", st.Misses},
			{"nwcq_result_cache_coalesced_total", "Lookups that shared another caller's in-flight computation.", st.Coalesced},
			{"nwcq_result_cache_invalidations_total", "Generation advances that dropped the cached entries.", st.Invalidations},
		} {
			pw.Header(cc.name, "counter", cc.help)
			pw.Value(cc.name, nil, float64(cc.v))
		}
		pw.Header("nwcq_result_cache_entries", "gauge", "Entries currently cached (including in-flight computations).")
		pw.Value("nwcq_result_cache_entries", nil, float64(st.Entries))
	}
	ss := s.SubscriptionStats()
	pw.Header("nwcq_sub_active", "gauge", "Open standing-query subscriptions on the router.")
	pw.Value("nwcq_sub_active", nil, float64(ss.Active))
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"nwcq_sub_published_total", "Shard publishes that reached a notifier while triggers were open.", ss.Published},
		{"nwcq_sub_notified_total", "Trigger notifications enqueued by shard notifiers.", ss.Notified},
		{"nwcq_sub_coalesced_total", "Trigger notifications dropped by queue overflow.", ss.Coalesced},
		{"nwcq_sub_resync_total", "Router frames delivered flagged resync.", ss.Resyncs},
		{"nwcq_sub_delivered_total", "Router standing-query frames delivered.", ss.Delivered},
		{"nwcq_sub_eval_errors_total", "Router standing-query re-evaluations that failed.", ss.EvalErrors},
	} {
		pw.Header(c.name, "counter", c.help)
		pw.Value(c.name, nil, float64(c.v))
	}

	// Summed storage families, same names as the single-index export so
	// dashboards keep working when a deployment switches backends.
	snap := s.Metrics()
	if pc := snap.PageCache; pc != nil {
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"nwcq_page_cache_reads_total", "Physical page reads, summed over shards.", pc.Reads},
			{"nwcq_page_cache_writes_total", "Physical page writes, summed over shards.", pc.Writes},
			{"nwcq_page_cache_hits_total", "Buffer-pool hits, summed over shards.", pc.Hits},
			{"nwcq_page_cache_misses_total", "Buffer-pool misses, summed over shards.", pc.Misses},
			{"nwcq_page_cache_evictions_total", "Frames evicted for room, summed over shards.", pc.Evictions},
			{"nwcq_page_cache_coalesced_total", "Cold reads coalesced by single-flight, summed over shards.", pc.Coalesced},
			{"nwcq_page_syncs_total", "Fsyncs of the page files, summed over shards.", pc.Syncs},
		} {
			pw.Header(c.name, "counter", c.help)
			pw.Value(c.name, nil, float64(c.v))
		}
	}
	if ws := snap.WAL; ws != nil {
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"nwcq_wal_appends_total", "WAL records appended, summed over shards.", ws.Appends},
			{"nwcq_wal_append_bytes_total", "WAL bytes appended, summed over shards.", ws.AppendBytes},
			{"nwcq_wal_fsyncs_total", "WAL segment fsyncs, summed over shards.", ws.Fsyncs},
			{"nwcq_wal_rotations_total", "WAL segment rotations, summed over shards.", ws.Rotations},
			{"nwcq_wal_segments_recycled_total", "WAL segments recycled, summed over shards.", ws.SegmentsRecycled},
			{"nwcq_wal_checkpoints_total", "Checkpoints, summed over shards.", ws.Checkpoints},
			{"nwcq_wal_records_replayed_total", "Records replayed during crash recovery, summed over shards.", ws.RecordsReplayed},
		} {
			pw.Header(c.name, "counter", c.help)
			pw.Value(c.name, nil, float64(c.v))
		}
	}
	return pw.Err
}

// SlowQueryThreshold returns the shared slow-query threshold (every
// shard carries the same one; shard 0 is the source of truth).
func (s *Sharded) SlowQueryThreshold() time.Duration {
	return s.shards[0].SlowQueryThreshold()
}

// SetSlowQueryThreshold adjusts the slow-query threshold on every
// shard at runtime. The router-level log shares the shards' threshold.
func (s *Sharded) SetSlowQueryThreshold(threshold time.Duration) {
	for _, ix := range s.shards {
		ix.SetSlowQueryThreshold(threshold)
	}
}

// noteSlowRouted records one routed query in the router-level slow ring
// when it exceeded the threshold. Unlike the shard entries (one shard's
// local share each), a router entry covers the whole routed execution:
// scatter, border fetches and merging. Validation failures never
// executed and are not recorded, matching the single-index rule.
func (s *Sharded) noteSlowRouted(kind string, q nwcq.Query, k, m int, start time.Time, elapsed time.Duration, visits uint64, err error) {
	th := s.SlowQueryThreshold()
	if th <= 0 || elapsed < th || errors.Is(err, nwcq.ErrInvalidQuery) {
		return
	}
	e := &nwcq.SlowQueryEntry{
		Kind:    kind,
		Scheme:  q.Scheme.String(),
		Measure: q.Measure.String(),
		X:       q.X, Y: q.Y, Length: q.Length, Width: q.Width, N: q.N,
		K: k, M: m,
		StartedAt: start, Duration: elapsed, NodeVisits: visits,
		Source: "router",
	}
	if err != nil {
		e.Error = err.Error()
	}
	s.obs.slow.Put(e)
}

// SlowQueries merges the router-level ring with the shards' local
// rings, newest first. Router entries carry Source "router" (whole
// routed queries); shard entries are stamped "shard<i>" so one slow
// routed query is attributable to the shard that dominated it.
func (s *Sharded) SlowQueries() []nwcq.SlowQueryEntry {
	var out []nwcq.SlowQueryEntry
	for _, p := range s.obs.slow.Snapshot() {
		out = append(out, *p)
	}
	for i, ix := range s.shards {
		src := "shard" + strconv.Itoa(i)
		for _, e := range ix.SlowQueries() {
			e.Source = src
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartedAt.After(out[j].StartedAt) })
	return out
}
