package trace

import (
	"encoding/json"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp pins the zero-cost-when-off contract: every
// method must be callable on a nil *Recorder.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Enter(PhaseDescent)
	r.Visit()
	r.Count(CtrDIPPruned, 3)
	r.Heap(10)
	r.Candidates(10)
	r.Finish()
	if _, total := r.Span(); total != 0 || r.Phases() != nil || r.Counters() != [CounterCount]int64{} {
		t.Fatal("nil recorder produced a non-zero trace")
	}
}

// visitTotal sums the per-phase node-visit counts.
func visitTotal(phases []PhaseTrace) uint64 {
	var n uint64
	for _, p := range phases {
		n += p.NodeVisits
	}
	return n
}

func TestRecorderAccumulates(t *testing.T) {
	r := New()
	r.Visit() // validate
	r.Enter(PhaseDescent)
	r.Visit()
	r.Visit()
	r.Count(CtrDIPPruned, 2)
	r.Heap(5)
	r.Heap(3) // lower: must not regress the high-water mark
	r.Enter(PhaseSRR)
	r.Count(CtrSRRShrinks, 1)
	r.Enter(PhaseDescent) // re-entry accumulates into the same phase
	r.Visit()
	r.Candidates(40)
	r.Finish()

	phases, c := r.Phases(), r.Counters()
	if got := visitTotal(phases); got != 4 {
		t.Fatalf("visit total = %d, want 4", got)
	}
	byPhase := map[string]PhaseTrace{}
	for _, p := range phases {
		byPhase[p.Phase] = p
	}
	if byPhase["descent"].NodeVisits != 3 {
		t.Errorf("descent visits = %d, want 3", byPhase["descent"].NodeVisits)
	}
	if byPhase["descent"].Entered != 2 {
		t.Errorf("descent entered = %d, want 2", byPhase["descent"].Entered)
	}
	if byPhase["validate"].NodeVisits != 1 {
		t.Errorf("validate visits = %d, want 1", byPhase["validate"].NodeVisits)
	}
	if c[CtrDIPPruned] != 2 || c[CtrSRRShrinks] != 1 {
		t.Errorf("counters = %v", c)
	}
	if r.heapHW != 5 || r.candHW != 40 {
		t.Errorf("high-water = %d/%d, want 5/40", r.heapHW, r.candHW)
	}
	_, total := r.Span()
	if total <= 0 {
		t.Errorf("total duration %v not positive", total)
	}
	var sum time.Duration
	for _, p := range phases {
		sum += p.Duration
	}
	if sum > total {
		t.Errorf("phase durations %v exceed total %v", sum, total)
	}
}

// TestFinishFreezes pins that a finished recorder ignores further
// recording, so a trace cannot drift after it is reported.
func TestFinishFreezes(t *testing.T) {
	r := New()
	r.Enter(PhaseDescent)
	r.Visit()
	r.Finish()
	_, total := r.Span()
	r.Enter(PhaseVerify)
	r.Visit()
	phases := r.Phases()
	if visitTotal(phases) != 1 {
		t.Errorf("visits after Finish leaked: %d", visitTotal(phases))
	}
	if _, after := r.Span(); after != total {
		t.Errorf("total changed after Finish: %v -> %v", total, after)
	}
	for _, p := range phases {
		if p.Phase == "verify" {
			t.Errorf("phase entered after Finish leaked into snapshot")
		}
	}
}

// TestNames pins the phases' names and the counters' one mapping: each
// Counter reaches a key of its own in the trace's counters, beside the
// four a query's Stats supplies, and no key is also a phase's name.
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < PhaseCount; p++ {
		n := p.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("phase %d has bad name %q", p, n)
		}
		seen[n] = true
	}
	if Phase(200).String() != "unknown" {
		t.Fatalf("out-of-range names not guarded")
	}
	r := New()
	for c := Counter(0); c < CounterCount; c++ {
		r.Count(c, int64(c)+1)
	}
	tr := (&Record{Engine: r}).Trace("nwc", "NWC*", "max", Work{GridProbes: 101, WindowQueries: 102, CandidateWindows: 103, QualifiedWindows: 104}, time.Time{}, 0)
	raw, err := json.Marshal(tr.Counters)
	if err != nil {
		t.Fatal(err)
	}
	var byKey map[string]int64
	if err := json.Unmarshal(raw, &byKey); err != nil {
		t.Fatal(err)
	}
	if len(byKey) != int(CounterCount)+4 {
		t.Fatalf("%d counter keys, want %d + 4", len(byKey), CounterCount)
	}
	values := map[int64]string{}
	for key, v := range byKey {
		if seen[key] || values[v] != "" {
			t.Fatalf("counter key %q (value %d) collides with %q or a phase", key, v, values[v])
		}
		values[v] = key
	}
	for c := Counter(0); c < CounterCount; c++ {
		if values[int64(c)+1] == "" {
			t.Errorf("counter %d reaches no key of the trace's counters", c)
		}
	}
}
