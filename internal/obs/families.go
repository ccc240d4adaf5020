package obs

import "nwcq/internal/metrics"

// WritePrometheus renders the family table every backend shares, from
// the backend's snapshot plus this recorder's histograms (the snapshot
// carries quantile estimates; the exposition needs the buckets). points
// is the backend's current point count. A new metric is one field in
// MetricsSnapshot and one row here, and every backend then exports it
// in both formats; the shard router appends its routing block after
// this call.
func (r *Recorder) WritePrometheus(pw *metrics.PromWriter, s MetricsSnapshot, points int) {
	// Build identity: constant value 1 with the identity in labels — the
	// Prometheus convention, joinable onto any other family.
	pw.Header("nwcq_build_info", "gauge", "Build identity of the serving binary (constant 1; identity in labels).")
	pw.Value("nwcq_build_info", metrics.Labels{"version", s.Build.Version, "go_version", s.Build.GoVersion}, 1)
	pw.Header("nwcq_queries_total", "counter", "Queries served, by operation kind.")
	for _, name := range kindNames {
		pw.Value("nwcq_queries_total", metrics.Labels{"kind", name}, float64(s.Queries[name].Count))
	}
	pw.Header("nwcq_query_errors_total", "counter", "Failed queries, by operation kind.")
	for _, name := range kindNames {
		pw.Value("nwcq_query_errors_total", metrics.Labels{"kind", name}, float64(s.Queries[name].Errors))
	}
	pw.Header("nwcq_query_latency_seconds", "histogram", "Query latency, by operation kind.")
	for k, name := range kindNames {
		pw.Histogram("nwcq_query_latency_seconds", metrics.Labels{"kind", name}, r.latency[k].Snapshot())
	}
	pw.Header("nwcq_query_node_visits", "histogram", "Per-query R*-tree node visits (nwc and knwc only; a routed query sums its shards').")
	for k, h := range r.visits {
		pw.Histogram("nwcq_query_node_visits", metrics.Labels{"kind", kindNames[k]}, h.Snapshot())
	}
	pw.Header("nwcq_scheme_queries_total", "counter", "NWC/kNWC queries, by resolved optimisation scheme.")
	for _, name := range metrics.SortedKeys(s.SchemeCounts) {
		pw.Value("nwcq_scheme_queries_total", metrics.Labels{"scheme", name}, float64(s.SchemeCounts[name]))
	}
	pw.Counter("nwcq_node_visits_total", "Cumulative R*-tree node visits across all queries.", float64(s.CumulativeNodeVisits))
	pw.Gauge("nwcq_index_points", "Points currently indexed.", float64(points))
	pw.Counter("nwcq_iwp_rebuilds_total", "Full IWP pointer index rebuilds (mutations that changed the tree height; all others patch it).", float64(s.IWPRebuilds))
	pw.Gauge("nwcq_uptime_seconds", "Seconds since the backend was built or opened.", s.UptimeSeconds)
	pw.Counter("nwcq_slow_queries_total", "Queries that exceeded the slow-query threshold.", float64(r.slow.Recorded()))
	if pc := s.PageCache; pc != nil {
		pw.Counter("nwcq_page_cache_reads_total", "Physical page reads.", float64(pc.Reads))
		pw.Counter("nwcq_page_cache_writes_total", "Physical page writes.", float64(pc.Writes))
		pw.Counter("nwcq_page_cache_hits_total", "Buffer-pool hits.", float64(pc.Hits))
		pw.Counter("nwcq_page_cache_misses_total", "Buffer-pool misses.", float64(pc.Misses))
		pw.Counter("nwcq_page_cache_evictions_total", "Frames evicted for room.", float64(pc.Evictions))
		pw.Counter("nwcq_page_cache_coalesced_total", "Cold reads coalesced by single-flight.", float64(pc.Coalesced))
		pw.Counter("nwcq_page_syncs_total", "Fsyncs of the page file (checkpoint cost).", float64(pc.Syncs))
	}
	if w := s.WAL; w != nil {
		pw.Counter("nwcq_wal_appends_total", "Records appended to the write-ahead log.", float64(w.Appends))
		pw.Counter("nwcq_wal_append_bytes_total", "Bytes appended to the write-ahead log.", float64(w.AppendBytes))
		pw.Counter("nwcq_wal_fsyncs_total", "Fsyncs of write-ahead-log segments.", float64(w.Fsyncs))
		pw.Counter("nwcq_wal_rotations_total", "Write-ahead-log segment rotations.", float64(w.Rotations))
		pw.Counter("nwcq_wal_segments_recycled_total", "Write-ahead-log segments recycled after checkpoints.", float64(w.SegmentsRecycled))
		pw.Counter("nwcq_wal_checkpoints_total", "Checkpoints folding the log into the page file.", float64(w.Checkpoints))
		pw.Counter("nwcq_wal_records_replayed_total", "Records replayed during crash recovery at open.", float64(w.RecordsReplayed))
		pw.Gauge("nwcq_wal_appended_lsn", "Highest LSN appended to the log (largest over shards).", float64(w.AppendedLSN))
		pw.Gauge("nwcq_wal_durable_lsn", "Highest LSN known fsynced to stable storage (largest over shards).", float64(w.DurableLSN))
		pw.Gauge("nwcq_wal_committed_lsn", "LSN of the current published view (replica convergence target).", float64(w.CommittedLSN))
		pw.Gauge("nwcq_replica_lsn", "Highest leader LSN applied locally (zero unless a replication follower).", float64(w.ReplicaLSN))
	}
	if rc := s.ResultCache; rc != nil {
		pw.Counter("nwcq_result_cache_hits_total", "Query result cache hits.", float64(rc.Hits))
		pw.Counter("nwcq_result_cache_misses_total", "Query result cache misses (including stale-generation bypasses).", float64(rc.Misses))
		pw.Counter("nwcq_result_cache_coalesced_total", "Lookups that shared another caller's in-flight computation.", float64(rc.Coalesced))
		pw.Counter("nwcq_result_cache_invalidations_total", "Generation advances that dropped the cached entries.", float64(rc.Invalidations))
		pw.Gauge("nwcq_result_cache_entries", "Entries currently cached (including in-flight computations).", float64(rc.Entries))
	}
	if ss := s.Subscriptions; ss != nil {
		pw.Gauge("nwcq_sub_active", "Open standing-query subscriptions.", float64(ss.Active))
		pw.Counter("nwcq_sub_published_total", "Publishes that reached a notifier while subscriptions were open.", float64(ss.Published))
		pw.Counter("nwcq_sub_notified_total", "Notifications enqueued to subscribers (publishes passing the affect test).", float64(ss.Notified))
		pw.Counter("nwcq_sub_coalesced_total", "Notifications dropped by slow-subscriber queue overflow.", float64(ss.Coalesced))
		pw.Counter("nwcq_sub_resync_total", "Frames delivered flagged resync after an overflow.", float64(ss.Resyncs))
		pw.Counter("nwcq_sub_delivered_total", "Standing-query re-evaluations delivered.", float64(ss.Delivered))
		pw.Counter("nwcq_sub_eval_errors_total", "Standing-query re-evaluations that failed.", float64(ss.EvalErrors))
	}
}
