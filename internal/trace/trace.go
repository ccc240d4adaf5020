// Package trace provides the per-query structured tracing recorder
// threaded through the NWC query path. A Recorder accumulates, per
// phase of the algorithm, wall time (monotonic, via time.Now's
// monotonic reading), node visits and pruning-decision counts, plus
// scratch-structure high-water marks.
//
// The recorder is deliberately nil-tolerant: every method is a no-op on
// a nil *Recorder, and callers hold a plain pointer that is nil when
// tracing is off. The disabled query path therefore pays exactly one
// predictable nil-check branch per instrumentation point — no clock
// reads, no atomics, no allocation — which keeps tracing "zero cost
// when off" within measurement noise.
//
// A Recorder belongs to exactly one query and is not safe for
// concurrent use; queries are the unit of tracing, and each builds its
// own. It is the engine's part of the query's Record (record.go), the one
// per-request value the wide event and the explain trace are rendered
// from.
package trace

import "time"

// Phase identifies one stage of the NWC/kNWC algorithm. Phases are not
// strictly sequential — the best-first loop interleaves them — so the
// recorder accumulates total duration, entry count and node visits per
// phase rather than a flat span list.
type Phase uint8

const (
	// PhaseValidate covers parameter validation and query setup.
	PhaseValidate Phase = iota
	// PhaseDescent covers the best-first R*-tree traversal: popping
	// heap items, DIP/DEP node pruning and reading index nodes.
	PhaseDescent
	// PhaseSRR covers search-region construction and SRR shrinking for
	// each anchor object, including DEP's window-query cancellation.
	PhaseSRR
	// PhaseWindowEnum covers collecting each anchor's candidate objects:
	// from the query's window memo, or by window-query execution (IWP or
	// traditional root descent) to grow it or bypass it.
	PhaseWindowEnum
	// PhaseVerify covers candidate-window enumeration and verification
	// against the pruning bound (evaluateWindows).
	PhaseVerify
	// PhaseDedup covers kNWC candidate-pool maintenance: dedup,
	// ordered insert and the greedy selection refresh.
	PhaseDedup

	// PhaseCount is the number of phases.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	"validate", "descent", "srr", "window-enum", "verify", "knwc-dedup",
}

// String returns the phase's stable lower-case name.
func (p Phase) String() string {
	if p < PhaseCount {
		return phaseNames[p]
	}
	return "unknown"
}

// Counter identifies one pruning/decision count the recorder tracks
// beyond what per-query Stats already carries (Stats aggregates SRR+DEP
// skips and DIP+DEP prunes; the trace splits them by rule). Its name is
// the key of its TraceCounters field, where Record.Trace puts it.
type Counter uint8

const (
	// CtrSRRShrinks counts anchor objects whose search region was
	// shrunk by SRR under a finite bound.
	CtrSRRShrinks Counter = iota
	// CtrSRRSkips counts anchor objects skipped outright because SRR
	// shrank their search region to empty.
	CtrSRRSkips
	// CtrDIPPruned counts index nodes pruned by DIP.
	CtrDIPPruned
	// CtrDEPPrunedNodes counts index nodes pruned by DEP.
	CtrDEPPrunedNodes
	// CtrDEPSkippedObjects counts anchor objects whose window query DEP
	// cancelled.
	CtrDEPSkippedObjects
	// CtrGroupsEmitted counts windows whose group was materialised: the
	// ones the result kept — an improvement of an NWC's best group, an
	// entry to the kNWC pool (= dedup_accepted).
	CtrGroupsEmitted
	// CtrIWPJumpStarts counts window queries IWP started below the root
	// via a backward pointer.
	CtrIWPJumpStarts
	// CtrIWPRootStarts counts window queries that fell back to a
	// root-start (no backward-pointer MBR covered the rectangle).
	CtrIWPRootStarts
	// CtrIWPOverlapScans counts overlapping-node subtree scans IWP ran
	// to restore completeness after a below-root start.
	CtrIWPOverlapScans
	// CtrDedupOffered counts windows that reached the kNWC candidate pool's
	// test: qualified windows = gated + repeated + offered.
	CtrDedupOffered
	// CtrDedupAccepted counts offers that entered the pool (new object
	// set, or an improved distance for a known set).
	CtrDedupAccepted
	// CtrWindowsGated counts qualified windows skipped by a distance
	// gate — too few objects under the bound, window MINDIST, or an
	// NWC's best distance — without materialising their group. For an
	// NWC, qualified windows = gated + repeated + emitted.
	CtrWindowsGated
	// CtrAnchorsGated counts anchor objects whose whole x-slab held too
	// few objects under the bound for any of their windows to improve
	// it; their windows are neither sorted nor enumerated — nor, when the
	// window memo already shows it, is their region probed or read.
	CtrAnchorsGated
	// CtrMemoServed counts anchors whose search region lay inside the
	// query's window memo: their candidates cost no node visit.
	CtrMemoServed
	// CtrMemoStrips counts the range queries that grew the memo, one to
	// four difference strips per anchor that stuck out of it. Anchors
	// that grew it = window queries − memo_served − memo_bypassed.
	CtrMemoStrips
	// CtrMemoBypassed counts anchors answered by a range query of their
	// own with the memo left alone: those whose strips would have covered
	// too much beyond their region, and every anchor of a per-anchor
	// execution (the paper's Algorithm 1, internal/harness).
	CtrMemoBypassed
	// CtrNeverQueued counts child MBRs and leaf points an NWC search under
	// MeasureMax left off the queue because they already lay beyond the
	// bound when their parent was expanded.
	CtrNeverQueued
	// CtrStoppedAtBound is 1 when a search ended at the first queue item
	// beyond the reach of its bound — the bound itself for such an NWC,
	// the k-th distance plus a window's diagonal for a kNWC under any
	// measure — and 0 when the queue ran empty.
	CtrStoppedAtBound
	// CtrClipped counts the anchors of such an NWC whose search region
	// the bound's box [q ± bound]² cut before it was probed, read or counted.
	CtrClipped
	// CtrWindowsRepeated counts qualified windows skipped because their n
	// nearest objects were those of the window last handed on: the same
	// group at the same distance, which the result had just refused or kept.
	CtrWindowsRepeated

	// CounterCount is the number of counters.
	CounterCount
)

// Recorder accumulates one query's trace. The zero value is not usable;
// construct with New. All methods are no-ops on a nil receiver.
type Recorder struct {
	start    time.Time
	cur      Phase
	curStart time.Time
	finished bool
	total    time.Duration

	durs     [PhaseCount]time.Duration
	entered  [PhaseCount]int
	visits   [PhaseCount]uint64
	counters [CounterCount]int64

	heapHW int // best-first priority-queue high-water mark
	candHW int // window-query candidate buffer high-water mark
}

// New starts a recorder in PhaseValidate.
func New() *Recorder {
	now := time.Now()
	r := &Recorder{start: now, cur: PhaseValidate, curStart: now}
	r.entered[PhaseValidate] = 1
	return r
}

// Enter switches the recorder to phase p, closing the span of the
// current phase. Re-entering the current phase is a no-op (the span
// keeps running).
func (r *Recorder) Enter(p Phase) {
	if r == nil || r.finished || p == r.cur || p >= PhaseCount {
		return
	}
	now := time.Now()
	r.durs[r.cur] += now.Sub(r.curStart)
	r.cur = p
	r.curStart = now
	r.entered[p]++
}

// Visit attributes one node visit to the current phase.
func (r *Recorder) Visit() {
	if r == nil || r.finished {
		return
	}
	r.visits[r.cur]++
}

// Count adds n to counter c.
func (r *Recorder) Count(c Counter, n int64) {
	if r == nil || r.finished || c >= CounterCount {
		return
	}
	r.counters[c] += n
}

// Heap raises the priority-queue high-water mark to n if larger.
func (r *Recorder) Heap(n int) {
	if r == nil || n <= r.heapHW {
		return
	}
	r.heapHW = n
}

// Candidates raises the candidate-buffer high-water mark to n if
// larger.
func (r *Recorder) Candidates(n int) {
	if r == nil || n <= r.candHW {
		return
	}
	r.candHW = n
}

// Finish closes the current span and freezes the total duration.
// Further Enter/Visit/Count calls are ignored. Finish is idempotent.
func (r *Recorder) Finish() {
	if r == nil || r.finished {
		return
	}
	now := time.Now()
	r.durs[r.cur] += now.Sub(r.curStart)
	r.curStart = now
	r.total = now.Sub(r.start)
	r.finished = true
}

// Span finishes the recorder (if not already finished) and returns when
// it started and how long it ran.
func (r *Recorder) Span() (start time.Time, total time.Duration) {
	if r == nil {
		return
	}
	r.Finish()
	return r.start, r.total
}

// Phases finishes the recorder (if not already finished) and returns
// every phase entered at least once, in algorithm order.
func (r *Recorder) Phases() []PhaseTrace {
	if r == nil {
		return nil
	}
	r.Finish()
	var out []PhaseTrace
	for p := Phase(0); p < PhaseCount; p++ {
		if r.entered[p] > 0 {
			out = append(out, PhaseTrace{Phase: p.String(), Duration: r.durs[p], Entered: r.entered[p], NodeVisits: r.visits[p]})
		}
	}
	return out
}

// Counters finishes the recorder (if not already finished) and returns
// its counts, indexed by Counter; zero on a nil recorder.
func (r *Recorder) Counters() [CounterCount]int64 {
	if r == nil {
		return [CounterCount]int64{}
	}
	r.Finish()
	return r.counters
}
