package nwcq

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nwcq/internal/trace"
)

// Per-query structured tracing and the slow-query log.
//
// ExplainNWC and ExplainKNWC run a query with a trace recorder attached
// to its tree reader: every node visit, pruning decision and phase
// transition of the algorithm is attributed to the phase it happened
// in, with monotonic timestamps. The ordinary query path carries a nil
// recorder, so tracing costs it exactly one nil-check branch per
// instrumentation point — no clocks, no atomics, no allocation (see
// BenchmarkNWCTraceOff/BenchmarkNWCTraceOn).
//
// The slow-query log is a lock-free ring (internal/metrics.Ring, held by
// the index's obs.Recorder) of the most recent queries that exceeded a
// configurable latency threshold; recording is one atomic increment
// plus one pointer store, off the fast path entirely while the
// threshold is unset.

// PhaseTrace is one algorithm phase's share of a traced query. Phases
// interleave during the best-first traversal, so Duration and
// NodeVisits are totals accumulated across Entered entries.
type PhaseTrace struct {
	// Phase names the stage: "validate", "descent", "srr",
	// "window-enum", "verify" or "knwc-dedup".
	Phase string `json:"phase"`
	// Duration is the wall time spent in the phase (monotonic clock).
	Duration time.Duration `json:"duration_ns"`
	// Entered counts how many times the traversal switched into the
	// phase.
	Entered int `json:"entered"`
	// NodeVisits counts R*-tree nodes read while in the phase; summed
	// over all phases it equals the query's Stats.NodeVisits.
	NodeVisits uint64 `json:"node_visits"`
}

// TraceCounters itemises the pruning and routing decisions of a traced
// query, splitting by rule what Stats aggregates (ObjectsSkipped is
// SRRSkips+DEPSkippedObjects; NodesPruned is DIPPruned+DEPPrunedNodes).
type TraceCounters struct {
	// SRRShrinks counts anchor objects whose search region SRR shrank
	// under a finite bound; SRRSkips counts those it eliminated.
	SRRShrinks int64 `json:"srr_shrinks"`
	SRRSkips   int64 `json:"srr_skips"`
	// DIPPrunedNodes and DEPPrunedNodes count index nodes pruned by
	// each rule; DEPSkippedObjects counts window queries DEP cancelled.
	DIPPrunedNodes    int64 `json:"dip_pruned_nodes"`
	DEPPrunedNodes    int64 `json:"dep_pruned_nodes"`
	DEPSkippedObjects int64 `json:"dep_skipped_objects"`
	// GridProbes counts density-grid upper-bound probes.
	GridProbes int64 `json:"grid_probes"`
	// WindowQueries counts the anchors whose windows were taken up: the
	// window queries Algorithm 1 issues, one per such anchor. The Memo
	// counters below say how they were answered. AnchorsGated counts
	// the anchors among them whose candidates held too few objects under
	// the bound for any window to improve it; their windows are not
	// enumerated. CandidateWindows and QualifiedWindows count windows
	// enumerated and, of those, windows holding at least N objects.
	// WindowsGated counts qualified windows a distance gate ruled out,
	// WindowsRepeated those whose n nearest objects were the ones of the
	// window last handed on, and GroupsEmitted those whose group was
	// materialised: kept as the best so far, or entered into the kNWC
	// pool (= DedupAccepted). QualifiedWindows = WindowsGated +
	// WindowsRepeated + GroupsEmitted for an NWC, and WindowsGated +
	// WindowsRepeated + DedupOffered for a kNWC. A kNWC also counts in
	// AnchorsGated the anchors it dropped, on what its memo held, before
	// they became window queries.
	WindowQueries    int64 `json:"window_queries"`
	AnchorsGated     int64 `json:"anchors_gated"`
	CandidateWindows int64 `json:"candidate_windows"`
	QualifiedWindows int64 `json:"qualified_windows"`
	WindowsGated     int64 `json:"windows_gated"`
	WindowsRepeated  int64 `json:"windows_repeated"`
	GroupsEmitted    int64 `json:"groups_emitted"`
	// IWPJumpStarts counts window queries started below the root via a
	// backward pointer, IWPRootStarts those that fell back to the root,
	// and IWPOverlapScans the overlapping-node subtree scans run to
	// restore completeness after a below-root start. They count the
	// range queries that reached the index (MemoStrips + MemoBypassed
	// under an IWP scheme), not the anchors.
	IWPJumpStarts   int64 `json:"iwp_jump_starts"`
	IWPRootStarts   int64 `json:"iwp_root_starts"`
	IWPOverlapScans int64 `json:"iwp_overlap_scans"`
	// MemoServed counts anchors whose search region lay inside what the
	// query's earlier window queries had fetched: their candidates cost
	// no node visit. MemoStrips counts the range queries that grew that
	// memo, one to four difference strips per anchor that stuck out of it
	// (so WindowQueries − MemoServed − MemoBypassed anchors grew it), and
	// MemoBypassed the anchors answered by a range query of their own
	// because their strips would have covered too much beyond their
	// region.
	MemoServed   int64 `json:"memo_served"`
	MemoStrips   int64 `json:"memo_strips"`
	MemoBypassed int64 `json:"memo_bypassed"`
	// NeverQueued counts child MBRs and leaf points left off the best-first
	// queue because they lay beyond the bound when their parent was
	// expanded, and StoppedAtBound is 1 when the search ended at the first
	// queue item farther than the bound (0: the queue ran empty). Clipped
	// counts the anchors whose search region was cut to the bound's box
	// [q ± bound]² before it was probed, read or counted. All three are the
	// stop rule of an NWC query under MeasureMax; a kNWC query, under any
	// measure, sets only StoppedAtBound, when it ended at the first item
	// farther than its k-th distance plus a window's diagonal.
	NeverQueued    int64 `json:"never_queued"`
	StoppedAtBound int64 `json:"stopped_at_bound"`
	Clipped        int64 `json:"clipped"`
	// DedupOffered and DedupAccepted count kNWC candidate-pool traffic:
	// windows that reached the pool's test, and those that entered it.
	DedupOffered  int64 `json:"dedup_offered"`
	DedupAccepted int64 `json:"dedup_accepted"`
}

// QueryTrace is the structured trace of one explained query.
type QueryTrace struct {
	// Kind is "nwc" or "knwc".
	Kind string `json:"kind"`
	// Scheme and Measure are the resolved scheme and distance measure.
	Scheme  string `json:"scheme"`
	Measure string `json:"measure"`
	// StartedAt is the wall-clock start; Duration the monotonic total.
	StartedAt time.Time     `json:"started_at"`
	Duration  time.Duration `json:"duration_ns"`
	// NodeVisits is the query's total I/O cost; it equals the sum of
	// the per-phase NodeVisits.
	NodeVisits uint64 `json:"node_visits"`
	// Phases lists every phase entered, in algorithm order.
	Phases   []PhaseTrace  `json:"phases"`
	Counters TraceCounters `json:"counters"`
	// HeapHighWater and CandidateHighWater are the peak sizes of the
	// best-first priority queue and the window-query candidate buffer —
	// the query's two growable scratch structures.
	HeapHighWater      int `json:"heap_high_water"`
	CandidateHighWater int `json:"candidate_high_water"`
}

// queryTraceFrom assembles the public trace from a finished recorder
// and the query's Stats (which supplies the counters both share).
func queryTraceFrom(kind string, scheme Scheme, measure Measure, rec *trace.Recorder, st Stats) *QueryTrace {
	s := rec.Snapshot()
	qt := &QueryTrace{
		Kind:       kind,
		Scheme:     scheme.String(),
		Measure:    measure.String(),
		StartedAt:  s.Start,
		Duration:   s.Total,
		NodeVisits: st.NodeVisits,
		Counters: TraceCounters{
			SRRShrinks:        s.Counters[trace.CtrSRRShrinks],
			SRRSkips:          s.Counters[trace.CtrSRRSkips],
			DIPPrunedNodes:    s.Counters[trace.CtrDIPPruned],
			DEPPrunedNodes:    s.Counters[trace.CtrDEPPrunedNodes],
			DEPSkippedObjects: s.Counters[trace.CtrDEPSkippedObjects],
			GridProbes:        int64(st.GridProbes),
			WindowQueries:     int64(st.WindowQueries),
			AnchorsGated:      s.Counters[trace.CtrAnchorsGated],
			CandidateWindows:  int64(st.CandidateWindows),
			QualifiedWindows:  int64(st.QualifiedWindows),
			WindowsGated:      s.Counters[trace.CtrWindowsGated],
			WindowsRepeated:   s.Counters[trace.CtrWindowsRepeated],
			GroupsEmitted:     s.Counters[trace.CtrGroupsEmitted],
			IWPJumpStarts:     s.Counters[trace.CtrIWPJumpStarts],
			IWPRootStarts:     s.Counters[trace.CtrIWPRootStarts],
			IWPOverlapScans:   s.Counters[trace.CtrIWPOverlapScans],
			MemoServed:        s.Counters[trace.CtrMemoServed],
			MemoStrips:        s.Counters[trace.CtrMemoStrips],
			MemoBypassed:      s.Counters[trace.CtrMemoBypassed],
			NeverQueued:       s.Counters[trace.CtrNeverQueued],
			StoppedAtBound:    s.Counters[trace.CtrStoppedAtBound],
			Clipped:           s.Counters[trace.CtrClipped],
			DedupOffered:      s.Counters[trace.CtrDedupOffered],
			DedupAccepted:     s.Counters[trace.CtrDedupAccepted],
		},
		HeapHighWater:      s.HeapHighWater,
		CandidateHighWater: s.CandidateHighWater,
	}
	for _, p := range s.Phases {
		qt.Phases = append(qt.Phases, PhaseTrace{
			Phase:      p.Phase.String(),
			Duration:   p.Duration,
			Entered:    p.Entered,
			NodeVisits: p.Visits,
		})
	}
	return qt
}

// Render formats the trace as an indented phase tree for terminals:
// one line per phase with its share of time and I/O, and detail lines
// for the pruning decisions that happened inside it.
func (t *QueryTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s scheme=%s measure=%s total=%v visits=%d\n",
		t.Kind, t.Scheme, t.Measure, t.Duration.Round(time.Microsecond), t.NodeVisits)
	c := t.Counters
	details := map[string][]string{
		"descent": joinNonZero(
			kv("dip-pruned", c.DIPPrunedNodes), kv("dep-pruned", c.DEPPrunedNodes),
			kv("never-queued", c.NeverQueued), kv("stopped-at-bound", c.StoppedAtBound),
			kv("heap-high-water", int64(t.HeapHighWater))),
		"srr": joinNonZero(
			kv("shrunk", c.SRRShrinks), kv("clipped", c.Clipped), kv("skipped", c.SRRSkips),
			kv("dep-cancelled", c.DEPSkippedObjects), kv("grid-probes", c.GridProbes)),
		"window-enum": joinNonZero(
			kv("window-queries", c.WindowQueries), kv("memo-served", c.MemoServed),
			kv("memo-strips", c.MemoStrips), kv("memo-bypassed", c.MemoBypassed),
			kv("iwp-jump-starts", c.IWPJumpStarts),
			kv("iwp-root-starts", c.IWPRootStarts), kv("iwp-overlap-scans", c.IWPOverlapScans),
			kv("candidate-high-water", int64(t.CandidateHighWater))),
		"verify": joinNonZero(
			kv("anchors-gated", c.AnchorsGated), kv("windows", c.CandidateWindows),
			kv("qualified", c.QualifiedWindows), kv("gated", c.WindowsGated),
			kv("repeated", c.WindowsRepeated), kv("groups-emitted", c.GroupsEmitted)),
		"knwc-dedup": joinNonZero(
			kv("offered", c.DedupOffered), kv("accepted", c.DedupAccepted)),
	}
	for i, p := range t.Phases {
		branch, stem := "├─", "│"
		if i == len(t.Phases)-1 {
			branch, stem = "└─", " "
		}
		fmt.Fprintf(&b, "%s %-12s %10v  entered=%-5d visits=%d\n",
			branch, p.Phase, p.Duration.Round(time.Microsecond), p.Entered, p.NodeVisits)
		for _, d := range details[p.Phase] {
			fmt.Fprintf(&b, "%s      %s\n", stem, d)
		}
	}
	return b.String()
}

func kv(name string, v int64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%s=%d", name, v)
}

func joinNonZero(parts ...string) []string {
	var kept []string
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return []string{strings.Join(kept, " ")}
}

// ExplainNWC answers an NWC query with tracing enabled, returning the
// result alongside its structured trace. The query still contributes to
// Metrics and the slow-query log like any other.
func (ix *Index) ExplainNWC(ctx context.Context, q Query) (Result, *QueryTrace, error) {
	rec := trace.New()
	res, err := execute(ctx, ix, &nwcKind, q, exec{rec: rec})
	return res, queryTraceFrom("nwc", q.Scheme, q.Measure, rec, res.Stats), err
}

// ExplainKNWC answers a kNWC query with tracing enabled, returning the
// groups alongside the query's structured trace.
func (ix *Index) ExplainKNWC(ctx context.Context, q KQuery) (KResult, *QueryTrace, error) {
	rec := trace.New()
	res, err := execute(ctx, ix, &knwcKind, q, exec{rec: rec})
	return res, queryTraceFrom("knwc", q.Scheme, q.Measure, rec, res.Stats), err
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
