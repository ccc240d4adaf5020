package trace

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The per-query record. One value per request carries everything the
// stack attributes to the query: the engine's phases and counters (its
// Recorder), the result cache's outcome and, on a routed query, the
// router's block. It rides the request context, and the sampled wide
// event, the explain trace and the router's merged trace are renderings
// of it.
//
// A Record is owned by one request goroutine. Whoever fans work out —
// batch execution (pool.Map), the shard router's scatter — runs the
// fan-out under Detach, so concurrent sub-queries never write one record:
// the router fills its own block, and each recorder of an explained
// routed query's shards is written by the one worker that ran the shard.

// Cache outcomes, stamped by the caching layer (qcache.Resolve) of the
// index or the router, whichever answered.
const (
	CacheOff    = "off"    // no result cache configured
	CacheHit    = "hit"    // served from the cache
	CacheMiss   = "miss"   // executed and (possibly) stored
	CacheBypass = "bypass" // an execution that never consults the cache
)

// Record is one query's record.
type Record struct {
	// Cache is the caching layer's outcome, one of the Cache* constants;
	// empty when no caching layer saw the query.
	Cache string
	// Engine is the recorder of the index execution that answered the
	// query. The index arms it when it executes (Arm), so a cache hit, a
	// coalesced waiter and a routed query carry none. A record that
	// reaches an index already armed asks for an explained execution.
	Engine *Recorder
	// Router is the shard router's block; nil on a single index.
	Router *Router
	// Shards holds an explained routed query's shard recorders, by shard
	// index (nil for a shard the scatter skipped); nil unless explained.
	Shards []*Recorder
}

// Router is a routed query's attribution, filled by the router while the
// query runs and flushed into its aggregates when it ends.
type Router struct {
	// ShardsQueried and ShardsPruned split the scatter fan-out: local
	// queries issued vs shards the MINDIST bound skipped.
	ShardsQueried int `json:"shards_queried"`
	ShardsPruned  int `json:"shards_pruned"`
	// BorderFetches and BorderPoints count border-pass window fetches and
	// the points they returned; FetchReruns counts kNWC certification
	// retries (fetch-bound doublings).
	BorderFetches int `json:"border_fetches"`
	BorderPoints  int `json:"border_points"`
	FetchReruns   int `json:"fetch_reruns"`
	// The routed query's wall time by phase: scatter (shard queries),
	// border (cross-shard fetches) and merge (the sweep of what they
	// fetched, and greedy merging). An explained trace shows the last two
	// as its border-fetch and border-merge phases.
	Scatter time.Duration `json:"scatter_ns"`
	Border  time.Duration `json:"border_ns"`
	Merge   time.Duration `json:"merge_ns"`
}

type ctxKey struct{}

// With returns ctx carrying r.
func With(ctx context.Context, r *Record) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From returns the record ctx carries, nil when there is none.
func From(ctx context.Context) *Record {
	r, _ := ctx.Value(ctxKey{}).(*Record)
	return r
}

// Detach strips any carried record, so work fanned out under the returned
// context cannot race on the parent's. It returns ctx unchanged when no
// record is attached.
func Detach(ctx context.Context) context.Context {
	if From(ctx) == nil {
		return ctx
	}
	return With(ctx, nil)
}

// Ensure returns ctx carrying a record — the one already riding it, or a
// new one — and that record.
func Ensure(ctx context.Context) (context.Context, *Record) {
	if r := From(ctx); r != nil {
		return ctx, r
	}
	r := &Record{}
	return With(ctx, r), r
}

// Explained reports whether r asks for an explained execution: its engine
// recorder, or room for its shards', was set before the query ran.
func (r *Record) Explained() bool {
	return r != nil && (r.Engine != nil || r.Shards != nil)
}

// Arm returns r's engine recorder, starting one when r has none yet; a nil
// record — the untraced path — yields nil.
func (r *Record) Arm() *Recorder {
	if r == nil {
		return nil
	}
	if r.Engine == nil {
		r.Engine = New()
	}
	return r.Engine
}

// Work is what a query's Stats holds for its trace: the node visits, and
// the four counters the engine keeps there rather than on the recorder.
type Work struct {
	NodeVisits                                                    uint64
	GridProbes, WindowQueries, CandidateWindows, QualifiedWindows int64
}

// Trace renders r as the explain trace of one query of kind under scheme
// and measure, which started at start and took total, with w from its
// Stats. The phases are the engine recorder's or, on a routed query, every
// queried shard's, prefixed with its shard and in shard order, then the
// router's border-fetch and border-merge when it fetched across a seam;
// the counters are summed and the high-water marks the largest.
func (r *Record) Trace(kind, scheme, measure string, w Work, start time.Time, total time.Duration) *QueryTrace {
	qt := &QueryTrace{
		Kind: kind, Scheme: scheme, Measure: measure,
		StartedAt: start, Duration: total, NodeVisits: w.NodeVisits,
	}
	var c [CounterCount]int64
	add := func(prefix string, rec *Recorder) {
		for _, p := range rec.Phases() {
			p.Phase = prefix + p.Phase
			qt.Phases = append(qt.Phases, p)
		}
		for i, n := range rec.counters {
			c[i] += n
		}
		qt.HeapHighWater = max(qt.HeapHighWater, rec.heapHW)
		qt.CandidateHighWater = max(qt.CandidateHighWater, rec.candHW)
	}
	if r.Engine != nil {
		add("", r.Engine)
	}
	for i, rec := range r.Shards {
		if rec != nil {
			add("shard"+strconv.Itoa(i)+":", rec)
		}
	}
	if rt := r.Router; rt != nil && rt.BorderFetches > 0 {
		qt.Phases = append(qt.Phases,
			PhaseTrace{Phase: "border-fetch", Duration: rt.Border, Entered: 1},
			PhaseTrace{Phase: "border-merge", Duration: rt.Merge, Entered: 1})
	}
	qt.Counters = TraceCounters{
		SRRShrinks:        c[CtrSRRShrinks],
		SRRSkips:          c[CtrSRRSkips],
		DIPPrunedNodes:    c[CtrDIPPruned],
		DEPPrunedNodes:    c[CtrDEPPrunedNodes],
		DEPSkippedObjects: c[CtrDEPSkippedObjects],
		GridProbes:        w.GridProbes,
		WindowQueries:     w.WindowQueries,
		AnchorsGated:      c[CtrAnchorsGated],
		CandidateWindows:  w.CandidateWindows,
		QualifiedWindows:  w.QualifiedWindows,
		WindowsGated:      c[CtrWindowsGated],
		WindowsRepeated:   c[CtrWindowsRepeated],
		GroupsEmitted:     c[CtrGroupsEmitted],
		IWPJumpStarts:     c[CtrIWPJumpStarts],
		IWPRootStarts:     c[CtrIWPRootStarts],
		IWPOverlapScans:   c[CtrIWPOverlapScans],
		MemoServed:        c[CtrMemoServed],
		MemoStrips:        c[CtrMemoStrips],
		MemoBypassed:      c[CtrMemoBypassed],
		NeverQueued:       c[CtrNeverQueued],
		StoppedAtBound:    c[CtrStoppedAtBound],
		Clipped:           c[CtrClipped],
		DedupOffered:      c[CtrDedupOffered],
		DedupAccepted:     c[CtrDedupAccepted],
	}
	return qt
}

// PhaseTrace is one algorithm phase's share of a traced query. Phases
// interleave during the best-first traversal, so Duration and NodeVisits
// are totals accumulated across Entered entries.
type PhaseTrace struct {
	// Phase names the stage: "validate", "descent", "srr",
	// "window-enum", "verify" or "knwc-dedup" — on a routed query
	// prefixed with the shard that ran it ("shard2:verify"), or the
	// router's own "border-fetch" and "border-merge".
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
