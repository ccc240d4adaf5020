package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric the benchmark reports.
type metricDef struct {
	name, unit string
	// endToEnd metrics carry a direction and a bound and are what
	// -compare judges; the rest are per-layer and explain them.
	endToEnd bool
	higher   bool    // better when higher
	bound    float64 // share of the baseline by which it may worsen
	// driver marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end. Its contract wants each of them reported on every
	// workload, never 0, and steady within its bound from run to run;
	// the workload-specific metrics, the two shares (0 when all is well)
	// and nwc_p99_ms (an open-loop tail of 45 samples spreads by 40%
	// between seeds) cannot do that. They are listed under per_layer
	// there and judged by -compare only.
	driver bool
}

func e2e(name, unit string, bound float64) metricDef {
	return metricDef{name: name, unit: unit, endToEnd: true, bound: bound}
}

func layer(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unit}
	}
	return out
}

// timeBound is the regression bound of every end-to-end metric that
// depends on the machine's speed. It is the widest BENCHMARK.json's
// contract allows: the speed of the shared host the bounds were set on
// drifts by more than that in a busy hour, and reporting at reference
// speed (speed.go) removes about two thirds of the drift, not all of it.
// sizeBound is for a byte count that repeats exactly.
const (
	timeBound = 0.25
	sizeBound = 0.10
)

var registry = func() []metricDef {
	drv := func(m metricDef) metricDef { m.driver = true; return m }
	up := func(m metricDef) metricDef { m.higher = true; return m }
	defs := []metricDef{
		drv(e2e("setup_s", "s", timeBound)),
		drv(up(e2e("throughput_ops_s", "ops/s", timeBound))),
		drv(e2e("cpu_ms_per_op", "ms", timeBound)),
		drv(e2e("nwc_p50_ms", "ms", timeBound)),
		drv(e2e("peak_rss_mb", "MB", timeBound)),
		e2e("nwc_p99_ms", "ms", timeBound),
		e2e("knwc_p50_ms", "ms", timeBound),
		e2e("knwc_p95_ms", "ms", timeBound),
		e2e("batch_p50_ms", "ms", timeBound),
		e2e("mutate_p50_ms", "ms", timeBound),
		e2e("mutate_p95_ms", "ms", timeBound),
		e2e("disk_bytes_per_point", "B", sizeBound),
		e2e("recovery_s", "s", timeBound),
		e2e("failed_share", "share", 0),
		e2e("wrong_share", "share", 0),
	}
	for _, group := range [][]metricDef{
		layer("us", "nethttp.self_us", "server.self_us",
			"core.descent_us", "core.srr_us", "core.window_enum_us", "core.verify_us", "core.knwc_dedup_us",
			"rstar.window_us", "rstar.nearest_us",
			"index.nwc_us", "index.knwc_us", "index.insert_us", "index.delete_us"),
		layer("B", "server.resp_bytes_per_op", "grid.bytes", "iwp.bytes_per_point", "index.heap_bytes_per_point",
			"pager.file_bytes_per_point", "wal.append_bytes_per_mutation", "runtime.alloc_bytes_per_op"),
		layer("count", "core.objects_processed_per_op", "core.objects_skipped_per_op", "core.nodes_pruned_per_op",
			"core.window_queries_per_op", "core.candidate_windows_per_op", "core.qualified_windows_per_op",
			"core.groups_emitted_per_op", "core.candidate_high_water_mean", "core.heap_high_water_mean",
			"rstar.node_visits_per_op", "iwp.jump_starts_per_op", "iwp.root_starts_per_op", "iwp.overlap_scans_per_op",
			"grid.probes_per_op", "index.iwp_rebuilds_per_mutation",
			"pager.reads_per_op", "pager.evictions_per_op", "pager.writes_per_mutation", "pager.syncs",
			"wal.fsyncs_per_mutation", "wal.checkpoints", "wal.rotations", "wal.records_replayed",
			"shard.shard_queries_per_op", "shard.pruned_per_op", "shard.border_fetches_per_op", "shard.border_points_per_op",
			"shard.bound_tightenings_per_op", "shard.fetch_reruns_per_op", "qcache.coalesced_per_op",
			"runtime.mallocs_per_op", "loadgen.backlog_max"),
		layer("ratio", "core.emitted_per_qualified", "index.explain_overhead_ratio", "pager.hit_rate", "qcache.hit_rate",
			"loadgen.trace_overhead_ratio", "loadgen.speed_factor", "loadgen.steal_stretch"),
		layer("ms", "iwp.rebuild_ms", "shard.scatter_ms_mean", "shard.border_ms_mean", "shard.merge_ms_mean",
			"runtime.gc_pause_ms_total", "loadgen.late_p50_ms", "loadgen.late_p99_ms"),
		layer("s", "index.build_s"),
		layer("1/s", "runtime.gc_cycles_per_s"),
		layer("ops/s", "loadgen.achieved_rate_ops_s"),
	} {
		defs = append(defs, group...)
	}
	for i := range defs {
		switch defs[i].name {
		case "core.emitted_per_qualified", "pager.hit_rate", "qcache.hit_rate", "loadgen.achieved_rate_ops_s":
			defs[i].higher = true
		}
	}
	return defs
}()

func metricByName(name string) (metricDef, bool) {
	for _, d := range registry {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a percentile, a median
	// or a mean. Spread is the run's own disagreement about the value: the
	// standard deviation across the slices of the window (throughput and
	// percentiles), the set-ups, or the ops of the traced pass (counts that
	// depend on timing). Both are omitted when they do not apply.
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload      string           `json:"workload"`
	DatasetSHA256 string           `json:"dataset_sha256"`
	ScriptSHA256  string           `json:"script_sha256"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	OracleChecked int              `json:"oracle_checked"`
	OracleSkipped int              `json:"oracle_skipped"`
	OracleWrong   int              `json:"oracle_wrong"`
	LostAcked     int              `json:"lost_acked"`
	Correct       bool             `json:"correct"`
	FirstError    string           `json:"first_error,omitempty"`
	ScriptWrapped bool             `json:"script_wrapped,omitempty"`
	Traced        bool             `json:"traced"`
	Metrics       map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64) { r.setN(name, v, 0, 0) }

func (r *result) setN(name string, v float64, samples int, spread float64) {
	d, ok := metricByName(name)
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	r.Metrics[name] = value{Value: v, Unit: d.unit, Samples: samples, Spread: spread}
}

// lines renders the metrics as "workload metric value unit" lines,
// end-to-end metrics first, each group in registry order.
func (r *result) lines() string {
	var b strings.Builder
	for _, d := range registry {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s %s %s %s", r.Workload, d.name, formatFloat(v.Value), v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(&b, " n=%d", v.Samples)
		}
		if v.Spread > 0 {
			fmt.Fprintf(&b, " sd=%s", formatFloat(v.Spread))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// minSamples returns how many samples the percentile a metric names
// needs for ten of them to lie beyond it, or 0 for other metrics.
func minSamples(name string) int {
	switch {
	case strings.HasSuffix(name, "_p99_ms"):
		return 1000
	case strings.HasSuffix(name, "_p95_ms"):
		return 200
	case strings.HasSuffix(name, "_p50_ms"):
		return 20
	}
	return 0
}

// percentile returns the nearest-rank p-quantile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(len(sorted)-1, i))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := mean(v)
	var ss float64
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(v)-1))
}
