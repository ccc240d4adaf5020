package obs

import (
	"time"

	"nwcq/internal/metrics"
	"nwcq/internal/qcache"
	"nwcq/internal/sub"
)

// The snapshot types below are the JSON shape of Metrics() and of
// GET /metrics; the root package re-exports each under its own name.

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

// MetricsSnapshot is a point-in-time copy of a backend's aggregated
// observability state.
type MetricsSnapshot struct {
	// CollectedAt is when the snapshot was taken; UptimeSeconds is the
	// time since the index was built or opened.
	CollectedAt   time.Time `json:"collected_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// Build identifies the serving binary (module version and Go
	// toolchain), so archived snapshots stay attributable to a build.
	Build metrics.BuildInfo `json:"build"`
	// Queries maps operation name ("nwc", "knwc", "nearest", "window",
	// "insert", "delete") to its aggregates.
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
	// WAL reports write-ahead-log counters; nil for in-memory indexes,
	// which have no log. A sharded backend sums its shards'.
	WAL *WALMetrics `json:"wal,omitempty"`
	// Router reports scatter-gather routing counters; nil for
	// single-index backends.
	Router *RouterMetrics `json:"router,omitempty"`
	// ResultCache reports the query result cache; nil when no cache is
	// configured (WithResultCache / shard.Options.ResultCache).
	ResultCache *ResultCacheMetrics `json:"result_cache,omitempty"`
	// Subscriptions reports the standing-query subsystem. A sharded
	// backend sums its shards' notifier counters.
	Subscriptions *sub.Stats `json:"subscriptions,omitempty"`
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

// SlowQueryEntry records one query that exceeded the slow-query
// threshold: its parameters, timing and I/O cost.
type SlowQueryEntry struct {
	// Kind is "nwc" or "knwc".
	Kind    string `json:"kind"`
	Scheme  string `json:"scheme"`
	Measure string `json:"measure"`
	// The query parameters.
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Length float64 `json:"length"`
	Width  float64 `json:"width"`
	N      int     `json:"n"`
	K      int     `json:"k,omitempty"`
	M      int     `json:"m,omitempty"`
	// StartedAt is the wall-clock start, Duration the monotonic
	// elapsed time, NodeVisits the I/O cost.
	StartedAt  time.Time     `json:"started_at"`
	Duration   time.Duration `json:"duration_ns"`
	NodeVisits uint64        `json:"node_visits"`
	// Source names the level that recorded the entry in a sharded
	// deployment: "router" for whole routed queries (end-to-end time
	// including scatter, border fetches and merging) or "shard<i>" for
	// one shard's local share. Empty on a single-index backend.
	Source string `json:"source,omitempty"`
	// Error is set when the query failed (including cancellation).
	Error string `json:"error,omitempty"`
}

// Sources is what a backend contributes to its snapshot beside the
// recorder: identity, storage state and the subsystems it owns. A
// single index fills the fields directly; the shard router folds its
// shards in with AddShard.
type Sources struct {
	// Created anchors the reported uptime.
	Created time.Time
	// NodeVisits is the backend's cumulative node-visit total.
	NodeVisits  uint64
	IWPRebuilds uint64
	// PageCache and WAL are nil when the backend has none. The snapshot
	// builder fills PageCache.HitRate.
	PageCache *PageCacheMetrics
	WAL       *WALMetrics
	// ResultCache is the summed NWC + kNWC cache counters; nil when
	// caching is off.
	ResultCache   *qcache.Stats
	Subscriptions sub.Stats
}

// AddShard folds one shard's snapshot into the sources of the backend
// above it: node visits, IWP rebuilds, page-cache and WAL counters are
// summed. Per-shard LSN streams are independent, so the LSN gauges
// report the largest and still move with write activity.
func (src *Sources) AddShard(shard MetricsSnapshot) {
	src.NodeVisits += shard.CumulativeNodeVisits
	src.IWPRebuilds += shard.IWPRebuilds
	if p := shard.PageCache; p != nil {
		if src.PageCache == nil {
			src.PageCache = &PageCacheMetrics{}
		}
		pc := src.PageCache
		pc.Reads += p.Reads
		pc.Writes += p.Writes
		pc.Hits += p.Hits
		pc.Misses += p.Misses
		pc.Evictions += p.Evictions
		pc.Coalesced += p.Coalesced
		pc.Syncs += p.Syncs
	}
	if w := shard.WAL; w != nil {
		if src.WAL == nil {
			src.WAL = &WALMetrics{SyncPolicy: w.SyncPolicy}
		}
		wal := src.WAL
		wal.Appends += w.Appends
		wal.AppendBytes += w.AppendBytes
		wal.Fsyncs += w.Fsyncs
		wal.Rotations += w.Rotations
		wal.SegmentsRecycled += w.SegmentsRecycled
		wal.Checkpoints += w.Checkpoints
		wal.RecordsReplayed += w.RecordsReplayed
		wal.AppendedLSN = max(wal.AppendedLSN, w.AppendedLSN)
		wal.DurableLSN = max(wal.DurableLSN, w.DurableLSN)
		wal.CommittedLSN = max(wal.CommittedLSN, w.CommittedLSN)
		wal.ReplicaLSN = max(wal.ReplicaLSN, w.ReplicaLSN)
	}
}

// hitRate is hits / (hits + misses), zero before any lookup.
func hitRate(hits, misses uint64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// Snapshot builds the backend's MetricsSnapshot from the recorder's
// aggregates and src. Safe to call concurrently with queries: every
// value is an atomic read. The router adds its Router block on top.
func (r *Recorder) Snapshot(src Sources) MetricsSnapshot {
	now := time.Now()
	out := MetricsSnapshot{
		CollectedAt:          now,
		UptimeSeconds:        now.Sub(src.Created).Seconds(),
		Build:                metrics.Build(),
		Queries:              make(map[string]QueryKindMetrics, kindCount),
		SchemeCounts:         make(map[string]uint64),
		CumulativeNodeVisits: src.NodeVisits,
		IWPRebuilds:          src.IWPRebuilds,
		PageCache:            src.PageCache,
		WAL:                  src.WAL,
		Subscriptions:        &src.Subscriptions,
	}
	for k, name := range kindNames {
		lat := r.latency[k].Snapshot()
		km := QueryKindMetrics{
			Count:         r.queries[k].Value(),
			Errors:        r.errors[k].Value(),
			LatencyMeanMs: lat.Mean() * 1e3,
			LatencyP50Ms:  lat.QuantileOr(0.50, 0) * 1e3,
			LatencyP95Ms:  lat.QuantileOr(0.95, 0) * 1e3,
			LatencyP99Ms:  lat.QuantileOr(0.99, 0) * 1e3,
		}
		if k < len(r.visits) {
			vis := r.visits[k].Snapshot()
			km.NodeVisitsMean = vis.Mean()
			km.NodeVisitsP50 = vis.QuantileOr(0.50, 0)
			km.NodeVisitsP95 = vis.QuantileOr(0.95, 0)
			km.NodeVisitsP99 = vis.QuantileOr(0.99, 0)
		}
		out.Queries[name] = km
	}
	for i := range r.byScheme {
		if n := r.byScheme[i].Value(); n > 0 {
			out.SchemeCounts[schemeName(i)] += n
		}
	}
	if pc := out.PageCache; pc != nil {
		pc.HitRate = hitRate(pc.Hits, pc.Misses)
	}
	if st := src.ResultCache; st != nil {
		out.ResultCache = &ResultCacheMetrics{
			Hits:          st.Hits,
			Misses:        st.Misses,
			Coalesced:     st.Coalesced,
			Invalidations: st.Invalidations,
			Entries:       st.Entries,
			HitRate:       hitRate(st.Hits, st.Misses),
		}
	}
	return out
}
