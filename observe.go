package nwcq

import (
	"io"

	"nwcq/internal/metrics"
	"nwcq/internal/obs"
	"nwcq/internal/sub"
)

// Index-level observability. The recorder, the snapshot builder and the
// Prometheus family table live in internal/obs, shared with the shard
// router; this file hands the builder what only an Index knows: its
// tree, page cache, write-ahead log, result cache and subscriptions.

// The snapshot types are declared beside their builder in internal/obs
// (field by field, with the JSON shape of GET /metrics) and named here
// for the public API.
type (
	// MetricsSnapshot is a point-in-time copy of a backend's aggregated
	// observability state.
	MetricsSnapshot = obs.MetricsSnapshot
	// QueryKindMetrics summarises one operation kind in a MetricsSnapshot.
	QueryKindMetrics = obs.QueryKindMetrics
	// PageCacheMetrics reports a paged index's page I/O and node cache.
	PageCacheMetrics = obs.PageCacheMetrics
	// WALMetrics reports write-ahead-log activity and the LSN horizon.
	WALMetrics = obs.WALMetrics
	// ResultCacheMetrics reports the single-flight query result cache.
	ResultCacheMetrics = obs.ResultCacheMetrics
	// RouterMetrics reports a sharded backend's routing activity; a
	// single index never sets it.
	RouterMetrics = obs.RouterMetrics
	// RouterPhaseMetrics summarises one routed-query phase's latency.
	RouterPhaseMetrics = obs.RouterPhaseMetrics
	// SubscriptionStats snapshots the subscription subsystem's counters.
	SubscriptionStats = sub.Stats
	// SlowQueryEntry records one query that exceeded the slow-query
	// threshold: its parameters, timing and I/O cost.
	SlowQueryEntry = obs.SlowQueryEntry
	// BuildInfo is the serving binary's identity (module version, Go
	// toolchain), carried in every MetricsSnapshot.
	BuildInfo = metrics.BuildInfo
)

// recorded describes a finished NWC (k = m = 0) or kNWC query to the
// recorder's Finish call.
func recorded(q Query, k, m int) obs.Query {
	return obs.Query{
		X: q.X, Y: q.Y, Length: q.Length, Width: q.Width, N: q.N, K: k, M: m,
		Scheme:  q.Scheme,
		Measure: q.Measure,
	}
}

// Metrics returns aggregated latency, error and I/O statistics over
// every query run on this index. Safe to call concurrently with
// queries; the snapshot is built from atomic reads.
func (ix *Index) Metrics() MetricsSnapshot {
	cur := ix.cur.Load()
	src := obs.Sources{
		Created:       ix.created,
		NodeVisits:    cur.tree.Visits(),
		IWPRebuilds:   ix.iwpRebuilds.Value(),
		Subscriptions: ix.SubscriptionStats(),
	}
	if ix.pageStats != nil {
		st := ix.pageStats()
		src.PageCache = &PageCacheMetrics{
			Reads: st.Reads, Writes: st.Writes,
			Hits: st.CacheHits, Misses: st.CacheMisses,
			Evictions: st.Evictions, Syncs: st.Syncs,
		}
	}
	if d := ix.dur; d != nil {
		ws := d.log.Stats()
		src.WAL = &WALMetrics{
			Appends: ws.Appends, AppendBytes: ws.AppendBytes,
			Fsyncs: ws.Syncs, Rotations: ws.Rotations,
			SegmentsRecycled: ws.Recycled,
			Checkpoints:      d.checkpoints.Load(),
			RecordsReplayed:  d.replayed,
			AppendedLSN:      d.log.AppendedLSN(),
			DurableLSN:       d.log.DurableLSN(),
			CommittedLSN:     cur.lsn,
			ReplicaLSN:       d.replica.Load(),
			SyncPolicy:       d.policy.String(),
		}
	}
	if ix.nwcCache != nil {
		st := ix.nwcCache.Stats().Add(ix.knwcCache.Stats())
		src.ResultCache = &st
	}
	return ix.rec.Snapshot(src)
}

// WritePrometheus renders the index's metrics in the Prometheus text
// exposition format (version 0.0.4): every family is rendered from the
// same snapshot Metrics returns, plus full latency and node-visit
// histograms with cumulative buckets. The server exposes it at
// GET /metrics?format=prometheus.
func (ix *Index) WritePrometheus(w io.Writer) error {
	pw := &metrics.PromWriter{W: w}
	ix.rec.WritePrometheus(pw, ix.Metrics(), ix.Len())
	return pw.Err
}
