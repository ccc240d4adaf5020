package nwcq

import (
	"io"
	"time"

	"nwcq/internal/metrics"
)

// Index-level observability: every query records its latency, node
// visits and scheme into lock-free aggregates (internal/metrics), read
// out with Index.Metrics. Recording sits outside the per-query Stats
// carrier, so the two never contend: Stats is exact per query, Metrics
// is exact in aggregate.

// queryKind indexes the per-operation aggregates.
type queryKind int

const (
	kindNWC queryKind = iota
	kindKNWC
	kindNearest
	kindWindow
	kindInsert
	kindDelete
	kindCount
)

var kindNames = [kindCount]string{"nwc", "knwc", "nearest", "window", "insert", "delete"}

// queryMetrics aggregates across queries with atomics only; it is safe
// for concurrent use and adds no lock to the query path.
type queryMetrics struct {
	queries [kindCount]metrics.Counter
	errors  [kindCount]metrics.Counter
	latency [kindCount]*metrics.Histogram // seconds
	visits  [kindCount]*metrics.Histogram // node visits (NWC/kNWC only)
	// byScheme counts NWC/kNWC queries per resolved scheme, indexed by
	// the scheme's four optimisation bits.
	byScheme [16]metrics.Counter
	// iwpRebuilds counts full IWP index rebuilds on the publish path: a
	// mutation that changed the tree's height. Every other mutation
	// patches the index and does not count.
	iwpRebuilds metrics.Counter
}

func newQueryMetrics() *queryMetrics {
	m := &queryMetrics{}
	for k := range m.latency {
		// 1µs .. ~8.4s in ×2 steps.
		m.latency[k] = metrics.MustHistogram(metrics.ExponentialBounds(1e-6, 2, 24))
		// 1 .. ~8.4M node visits in ×2 steps.
		m.visits[k] = metrics.MustHistogram(metrics.ExponentialBounds(1, 2, 24))
	}
	return m
}

func schemeIndex(s Scheme) int {
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

// observe records one finished query. Only NWC/kNWC report node visits
// and a scheme; the other kinds pass zero visits and SchemeDefault.
func (m *queryMetrics) observe(kind queryKind, scheme Scheme, elapsed time.Duration, visits uint64, err error) {
	m.queries[kind].Inc()
	if err != nil {
		m.errors[kind].Inc()
	}
	m.latency[kind].Observe(elapsed.Seconds())
	if kind == kindNWC || kind == kindKNWC {
		m.visits[kind].Observe(float64(visits))
		m.byScheme[schemeIndex(scheme)].Inc()
	}
}

// QueryKindMetrics summarises one operation kind in a MetricsSnapshot.
// Latencies are milliseconds; quantiles are histogram estimates
// (interpolated within log-spaced buckets).
type QueryKindMetrics struct {
	Count         uint64  `json:"count"`
	Errors        uint64  `json:"errors"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	// Node-visit distribution; zero for kinds that do not report visits
	// (nearest, window).
	NodeVisitsMean float64 `json:"node_visits_mean"`
	NodeVisitsP50  float64 `json:"node_visits_p50"`
	NodeVisitsP95  float64 `json:"node_visits_p95"`
	NodeVisitsP99  float64 `json:"node_visits_p99"`
}

// PageCacheMetrics reports buffer-pool effectiveness for a paged index:
// physical transfers, hit/miss/eviction counts, cold reads coalesced by
// single-flight, and the resulting hit rate.
type PageCacheMetrics struct {
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Coalesced uint64 `json:"coalesced"`
	// Syncs counts fsyncs of the page file — checkpoint cost.
	Syncs uint64 `json:"syncs"`
	// HitRate is Hits / (Hits + Misses), zero when no reads happened.
	HitRate float64 `json:"hit_rate"`
}

// WALMetrics reports write-ahead-log activity for a WAL-backed paged
// index: append volume, fsync and segment-lifecycle counts, checkpoint
// progress and the current LSN horizon.
type WALMetrics struct {
	Appends          uint64 `json:"appends"`
	AppendBytes      uint64 `json:"append_bytes"`
	Fsyncs           uint64 `json:"fsyncs"`
	Rotations        uint64 `json:"rotations"`
	SegmentsRecycled uint64 `json:"segments_recycled"`
	Checkpoints      uint64 `json:"checkpoints"`
	// RecordsReplayed is the number of committed records recovered when
	// the index was opened (zero after a clean shutdown).
	RecordsReplayed uint64 `json:"records_replayed"`
	// AppendedLSN and DurableLSN bound the window of acknowledged but
	// not yet fsynced mutations (equal under SyncAlways at rest).
	AppendedLSN uint64 `json:"appended_lsn"`
	DurableLSN  uint64 `json:"durable_lsn"`
	// CommittedLSN is the record the current published view reflects —
	// the newest mutation a query can observe, and the convergence
	// target for replication followers.
	CommittedLSN uint64 `json:"committed_lsn"`
	// ReplicaLSN is the highest leader LSN applied locally when this
	// index is a replication follower; zero on leaders.
	ReplicaLSN uint64 `json:"replica_lsn"`
	SyncPolicy string `json:"sync_policy"`
}

// MetricsSnapshot is a point-in-time copy of the index's aggregated
// observability state.
type MetricsSnapshot struct {
	// CollectedAt is when the snapshot was taken; UptimeSeconds is the
	// time since the index was built or opened.
	CollectedAt   time.Time `json:"collected_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// Build identifies the serving binary (module version and Go
	// toolchain), so archived snapshots stay attributable to a build.
	Build BuildInfo `json:"build"`
	// Queries maps operation name ("nwc", "knwc", "nearest", "window")
	// to its aggregates.
	Queries map[string]QueryKindMetrics `json:"queries"`
	// SchemeCounts maps resolved scheme name (as in Scheme.String) to
	// the number of NWC/kNWC queries run under it.
	SchemeCounts map[string]uint64 `json:"scheme_counts"`
	// CumulativeNodeVisits is the index-wide atomic node-visit total
	// (same value as IOStats).
	CumulativeNodeVisits uint64 `json:"cumulative_node_visits"`
	// IWPRebuilds counts full rebuilds of the IWP pointer index: the
	// mutations that changed the R*-tree's height. All other mutations
	// patch the index incrementally and leave this counter alone.
	IWPRebuilds uint64 `json:"iwp_rebuilds"`
	// PageCache reports buffer-pool counters; nil for in-memory indexes,
	// which have no page cache. A sharded backend sums its shards'.
	PageCache *PageCacheMetrics `json:"page_cache,omitempty"`
	// WAL reports write-ahead-log counters; nil for in-memory indexes
	// and indexes built WithoutWAL. A sharded backend sums its shards'.
	WAL *WALMetrics `json:"wal,omitempty"`
	// Router reports scatter-gather routing counters; nil for
	// single-index backends.
	Router *RouterMetrics `json:"router,omitempty"`
	// ResultCache reports the query result cache; nil when no cache is
	// configured (WithResultCache / shard.Options.ResultCache).
	ResultCache *ResultCacheMetrics `json:"result_cache,omitempty"`
	// Subscriptions reports the standing-query subsystem (subscribe.go).
	// A sharded backend sums its shards' notifier counters.
	Subscriptions *SubscriptionStats `json:"subscriptions,omitempty"`
}

// ResultCacheMetrics reports the single-flight query result cache:
// outcome counts (a coalesced lookup shared another caller's in-flight
// computation), generation invalidations that dropped the map, current
// population and the resulting hit rate. NWC and kNWC caches are
// reported summed.
type ResultCacheMetrics struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Coalesced     uint64 `json:"coalesced"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	// HitRate is Hits / (Hits + Misses), zero before any lookup.
	HitRate float64 `json:"hit_rate"`
}

// RouterMetrics reports the routing activity of a sharded backend
// (internal/shard); a single index never sets it.
type RouterMetrics struct {
	// Shards is the number of index shards behind the router.
	Shards int `json:"shards"`
	// ShardQueries counts local scatter queries issued to shards;
	// ShardsPruned counts shards the MINDIST bound let the router skip.
	ShardQueries uint64 `json:"shard_queries"`
	ShardsPruned uint64 `json:"shards_pruned"`
	// BorderFetches counts border-fetch passes for boundary-straddling
	// windows, BorderPoints the candidate points they collected.
	BorderFetches uint64 `json:"border_fetches"`
	BorderPoints  uint64 `json:"border_points"`
	// FetchReruns counts kNWC certification retries (fetch-bound
	// doublings before the merged answer was provably exact).
	FetchReruns uint64 `json:"fetch_reruns"`
	// Parallelism is the resolved scatter worker width;
	// InflightWorkers is the number of shard queries running right now.
	Parallelism     int   `json:"parallelism"`
	InflightWorkers int64 `json:"inflight_workers"`
	// BoundTightenings counts improvements published to the shared
	// scatter bound cell by in-flight shard traversals — how often the
	// parallel workers actually helped each other prune.
	BoundTightenings uint64 `json:"bound_tightenings"`
	// Phases maps routed-query phase name ("scatter", "border", "merge")
	// to its latency distribution: every routed NWC/kNWC execution
	// records its wall-clock split across the three phases, so a router
	// tail-latency spike can be attributed to shard fan-out, border
	// fetching or candidate merging without tracing individual queries.
	Phases map[string]RouterPhaseMetrics `json:"phases,omitempty"`
}

// RouterPhaseMetrics summarises one routed-query phase's latency
// distribution. Latencies are milliseconds; quantiles are histogram
// estimates. Count is the number of routed executions observed (equal
// across the phases: every routed query records all three, with zero
// duration for phases it skipped).
type RouterPhaseMetrics struct {
	Count         uint64  `json:"count"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
}

// Metrics returns aggregated latency, error and I/O statistics over
// every query run on this index. Safe to call concurrently with
// queries; the snapshot is built from atomic reads.
func (ix *Index) Metrics() MetricsSnapshot {
	m := ix.obs
	now := time.Now()
	out := MetricsSnapshot{
		CollectedAt:          now,
		UptimeSeconds:        now.Sub(ix.created).Seconds(),
		Build:                metrics.Build(),
		Queries:              make(map[string]QueryKindMetrics, kindCount),
		SchemeCounts:         make(map[string]uint64),
		CumulativeNodeVisits: ix.cur.Load().tree.Visits(),
		IWPRebuilds:          m.iwpRebuilds.Value(),
	}
	for k := queryKind(0); k < kindCount; k++ {
		lat := m.latency[k].Snapshot()
		vis := m.visits[k].Snapshot()
		km := QueryKindMetrics{
			Count:         m.queries[k].Value(),
			Errors:        m.errors[k].Value(),
			LatencyMeanMs: lat.Mean() * 1e3,
			LatencyP50Ms:  lat.QuantileOr(0.50, 0) * 1e3,
			LatencyP95Ms:  lat.QuantileOr(0.95, 0) * 1e3,
			LatencyP99Ms:  lat.QuantileOr(0.99, 0) * 1e3,
		}
		if k == kindNWC || k == kindKNWC {
			km.NodeVisitsMean = vis.Mean()
			km.NodeVisitsP50 = vis.QuantileOr(0.50, 0)
			km.NodeVisitsP95 = vis.QuantileOr(0.95, 0)
			km.NodeVisitsP99 = vis.QuantileOr(0.99, 0)
		}
		out.Queries[kindNames[k]] = km
	}
	for i := range m.byScheme {
		if n := m.byScheme[i].Value(); n > 0 {
			out.SchemeCounts[NewScheme(i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0).String()] += n
		}
	}
	if ix.pageStats != nil {
		st := ix.pageStats()
		pc := &PageCacheMetrics{
			Reads: st.Reads, Writes: st.Writes,
			Hits: st.CacheHits, Misses: st.CacheMisses,
			Evictions: st.Evictions, Coalesced: st.Coalesced,
			Syncs: st.Syncs,
		}
		if total := pc.Hits + pc.Misses; total > 0 {
			pc.HitRate = float64(pc.Hits) / float64(total)
		}
		out.PageCache = pc
	}
	if d := ix.dur; d != nil {
		ws := d.log.Stats()
		out.WAL = &WALMetrics{
			Appends: ws.Appends, AppendBytes: ws.AppendBytes,
			Fsyncs: ws.Syncs, Rotations: ws.Rotations,
			SegmentsRecycled: ws.Recycled,
			Checkpoints:      d.checkpoints.Load(),
			RecordsReplayed:  d.replayed,
			AppendedLSN:      d.log.AppendedLSN(),
			DurableLSN:       d.log.DurableLSN(),
			CommittedLSN:     ix.cur.Load().lsn,
			ReplicaLSN:       d.replica.Load(),
			SyncPolicy:       d.policy.String(),
		}
	}
	out.ResultCache = ix.cache.metrics()
	ss := ix.SubscriptionStats()
	out.Subscriptions = &ss
	return out
}

// WritePrometheus renders the index's metrics in the Prometheus text
// exposition format (version 0.0.4): one counter family per query
// kind, full latency and node-visit histograms with cumulative
// buckets, per-scheme counts, and the page-cache counters for paged
// indexes. The server exposes it at GET /metrics?format=prometheus.
func (ix *Index) WritePrometheus(w io.Writer) error {
	m := ix.obs
	pw := &promWriter{W: w}
	pw.BuildInfoProm()
	pw.Header("nwcq_queries_total", "counter", "Queries served, by operation kind.")
	for k := queryKind(0); k < kindCount; k++ {
		pw.Value("nwcq_queries_total", labels{"kind", kindNames[k]}, float64(m.queries[k].Value()))
	}
	pw.Header("nwcq_query_errors_total", "counter", "Failed queries, by operation kind.")
	for k := queryKind(0); k < kindCount; k++ {
		pw.Value("nwcq_query_errors_total", labels{"kind", kindNames[k]}, float64(m.errors[k].Value()))
	}
	pw.Header("nwcq_query_latency_seconds", "histogram", "Query latency, by operation kind.")
	for k := queryKind(0); k < kindCount; k++ {
		pw.Histogram("nwcq_query_latency_seconds", labels{"kind", kindNames[k]}, m.latency[k].Snapshot())
	}
	pw.Header("nwcq_query_node_visits", "histogram", "Per-query R*-tree node visits (nwc and knwc only).")
	for _, k := range []queryKind{kindNWC, kindKNWC} {
		pw.Histogram("nwcq_query_node_visits", labels{"kind", kindNames[k]}, m.visits[k].Snapshot())
	}
	pw.Header("nwcq_scheme_queries_total", "counter", "NWC/kNWC queries, by resolved optimisation scheme.")
	schemes := make(map[string]uint64)
	for i := range m.byScheme {
		if n := m.byScheme[i].Value(); n > 0 {
			schemes[NewScheme(i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0).String()] += n
		}
	}
	for _, name := range metrics.SortedKeys(schemes) {
		pw.Value("nwcq_scheme_queries_total", labels{"scheme", name}, float64(schemes[name]))
	}
	cur := ix.cur.Load()
	pw.Header("nwcq_node_visits_total", "counter", "Cumulative R*-tree node visits across all queries.")
	pw.Value("nwcq_node_visits_total", nil, float64(cur.tree.Visits()))
	pw.Header("nwcq_index_points", "gauge", "Points currently indexed.")
	pw.Value("nwcq_index_points", nil, float64(cur.tree.Len()))
	pw.Header("nwcq_iwp_rebuilds_total", "counter", "Full IWP pointer index rebuilds (mutations that changed the tree height; all others patch it).")
	pw.Value("nwcq_iwp_rebuilds_total", nil, float64(m.iwpRebuilds.Value()))
	pw.Header("nwcq_uptime_seconds", "gauge", "Seconds since the index was built or opened.")
	pw.Value("nwcq_uptime_seconds", nil, time.Since(ix.created).Seconds())
	pw.Header("nwcq_slow_queries_total", "counter", "Queries that exceeded the slow-query threshold.")
	pw.Value("nwcq_slow_queries_total", nil, float64(ix.slow.ring.Recorded()))
	if ix.pageStats != nil {
		st := ix.pageStats()
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"nwcq_page_cache_reads_total", "Physical page reads.", st.Reads},
			{"nwcq_page_cache_writes_total", "Physical page writes.", st.Writes},
			{"nwcq_page_cache_hits_total", "Buffer-pool hits.", st.CacheHits},
			{"nwcq_page_cache_misses_total", "Buffer-pool misses.", st.CacheMisses},
			{"nwcq_page_cache_evictions_total", "Frames evicted for room.", st.Evictions},
			{"nwcq_page_cache_coalesced_total", "Cold reads coalesced by single-flight.", st.Coalesced},
			{"nwcq_page_syncs_total", "Fsyncs of the page file (checkpoint cost).", st.Syncs},
		} {
			pw.Header(c.name, "counter", c.help)
			pw.Value(c.name, nil, float64(c.v))
		}
	}
	if d := ix.dur; d != nil {
		ws := d.log.Stats()
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"nwcq_wal_appends_total", "Records appended to the write-ahead log.", ws.Appends},
			{"nwcq_wal_append_bytes_total", "Bytes appended to the write-ahead log.", ws.AppendBytes},
			{"nwcq_wal_fsyncs_total", "Fsyncs of write-ahead-log segments.", ws.Syncs},
			{"nwcq_wal_rotations_total", "Write-ahead-log segment rotations.", ws.Rotations},
			{"nwcq_wal_segments_recycled_total", "Write-ahead-log segments recycled after checkpoints.", ws.Recycled},
			{"nwcq_wal_checkpoints_total", "Checkpoints folding the log into the page file.", d.checkpoints.Load()},
			{"nwcq_wal_records_replayed_total", "Records replayed during crash recovery at open.", d.replayed},
		} {
			pw.Header(c.name, "counter", c.help)
			pw.Value(c.name, nil, float64(c.v))
		}
		pw.Header("nwcq_wal_appended_lsn", "gauge", "Highest LSN appended to the log.")
		pw.Value("nwcq_wal_appended_lsn", nil, float64(d.log.AppendedLSN()))
		pw.Header("nwcq_wal_durable_lsn", "gauge", "Highest LSN known fsynced to stable storage.")
		pw.Value("nwcq_wal_durable_lsn", nil, float64(d.log.DurableLSN()))
		pw.Header("nwcq_wal_committed_lsn", "gauge", "LSN of the current published view (replica convergence target).")
		pw.Value("nwcq_wal_committed_lsn", nil, float64(ix.cur.Load().lsn))
		pw.Header("nwcq_replica_lsn", "gauge", "Highest leader LSN applied locally (zero unless a replication follower).")
		pw.Value("nwcq_replica_lsn", nil, float64(d.replica.Load()))
	}
	writeResultCacheProm(pw, ix.cache.metrics())
	writeSubscriptionProm(pw, ix.SubscriptionStats())
	return pw.Err
}

// writeSubscriptionProm renders the standing-query families; the shard
// router's aggregated exposition shares it.
func writeSubscriptionProm(pw *promWriter, ss SubscriptionStats) {
	pw.Header("nwcq_sub_active", "gauge", "Open standing-query subscriptions.")
	pw.Value("nwcq_sub_active", nil, float64(ss.Active))
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"nwcq_sub_published_total", "Publishes that reached the notifier while subscriptions were open.", ss.Published},
		{"nwcq_sub_notified_total", "Notifications enqueued to subscribers (publishes passing the affect test).", ss.Notified},
		{"nwcq_sub_coalesced_total", "Notifications dropped by slow-subscriber queue overflow.", ss.Coalesced},
		{"nwcq_sub_resync_total", "Frames delivered flagged resync after an overflow.", ss.Resyncs},
		{"nwcq_sub_delivered_total", "Standing-query re-evaluations delivered.", ss.Delivered},
		{"nwcq_sub_eval_errors_total", "Standing-query re-evaluations that failed.", ss.EvalErrors},
	} {
		pw.Header(c.name, "counter", c.help)
		pw.Value(c.name, nil, float64(c.v))
	}
}

// writeResultCacheProm renders the result-cache families; both the
// single-index and the sharded exposition share it. A nil snapshot
// (caching off) writes nothing.
func writeResultCacheProm(pw *promWriter, rc *ResultCacheMetrics) {
	if rc == nil {
		return
	}
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"nwcq_result_cache_hits_total", "Query result cache hits.", rc.Hits},
		{"nwcq_result_cache_misses_total", "Query result cache misses (including stale-generation bypasses).", rc.Misses},
		{"nwcq_result_cache_coalesced_total", "Lookups that shared another caller's in-flight computation.", rc.Coalesced},
		{"nwcq_result_cache_invalidations_total", "Generation advances that dropped the cached entries.", rc.Invalidations},
	} {
		pw.Header(c.name, "counter", c.help)
		pw.Value(c.name, nil, float64(c.v))
	}
	pw.Header("nwcq_result_cache_entries", "gauge", "Entries currently cached (including in-flight computations).")
	pw.Value("nwcq_result_cache_entries", nil, float64(rc.Entries))
}

// The Prometheus text-format writer lives in internal/metrics (prom.go)
// so the shard router's aggregated exposition shares one renderer, and
// the build identity (buildinfo.go) is shared the same way.
type (
	labels     = metrics.Labels
	promWriter = metrics.PromWriter

	// BuildInfo is the serving binary's identity (module version, Go
	// toolchain), carried in every MetricsSnapshot.
	BuildInfo = metrics.BuildInfo
)
