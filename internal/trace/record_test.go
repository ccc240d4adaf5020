package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRecordRidesTheContext pins the context half of the record: From
// finds what With attached, Detach hides it from fanned-out work (and
// costs nothing when there is none), Ensure reuses the request's record,
// and Arm starts the engine recorder once — never on a nil record, the
// untraced path.
func TestRecordRidesTheContext(t *testing.T) {
	bg := context.Background()
	if From(bg) != nil || Detach(bg) != bg {
		t.Fatal("a bare context carries a record, or Detach wrapped it")
	}
	r := &Record{}
	ctx := With(bg, r)
	if From(ctx) != r || From(Detach(ctx)) != nil {
		t.Fatal("With/From/Detach do not round-trip")
	}
	if got, same := Ensure(ctx); got != ctx || same != r {
		t.Fatal("Ensure replaced the request's record")
	}
	if got, fresh := Ensure(bg); fresh == nil || From(got) != fresh {
		t.Fatal("Ensure attached no record")
	}
	var none *Record
	if none.Arm() != nil || none.Explained() || r.Explained() {
		t.Fatal("a nil or unarmed record is traced or explained")
	}
	if rec := r.Arm(); rec == nil || r.Arm() != rec || r.Engine != rec {
		t.Fatal("Arm did not start exactly one engine recorder")
	}
	if !r.Explained() || !(&Record{Shards: []*Recorder{}}).Explained() {
		t.Fatal("an armed record does not ask for an explained execution")
	}
}

// TestRoutedTrace pins the router's rendering of an explained routed
// record: each queried shard's phases in shard order under its prefix,
// the border phases last and timed by the router's block, the counters
// summed and the high-water marks the largest.
func TestRoutedTrace(t *testing.T) {
	s0, s2 := New(), New()
	s0.Enter(PhaseDescent)
	s0.Count(CtrDIPPruned, 2)
	s0.Heap(10)
	s2.Enter(PhaseVerify)
	s2.Count(CtrDIPPruned, 3)
	s2.Candidates(40)
	r := &Record{
		Shards: []*Recorder{s0, nil, s2},
		Router: &Router{BorderFetches: 1, Border: 5, Merge: 7},
	}
	start := time.Now()
	tr := r.Trace("nwc", "NWC*", "max", Work{NodeVisits: 9, WindowQueries: 4}, start, time.Second)
	var names []string
	for _, p := range tr.Phases {
		names = append(names, p.Phase)
	}
	want := "shard0:validate shard0:descent shard2:validate shard2:verify border-fetch border-merge"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("phases %q, want %q", got, want)
	}
	if n := len(tr.Phases); tr.Phases[n-2].Duration != 5 || tr.Phases[n-1].Duration != 7 {
		t.Errorf("border phases %+v, want the block's 5 and 7", tr.Phases[n-2:])
	}
	c := tr.Counters
	if c.DIPPrunedNodes != 5 || c.WindowQueries != 4 || tr.NodeVisits != 9 || tr.HeapHighWater != 10 || tr.CandidateHighWater != 40 {
		t.Errorf("counters %+v, visits %d, high water %d/%d", c, tr.NodeVisits, tr.HeapHighWater, tr.CandidateHighWater)
	}
	if !tr.StartedAt.Equal(start) || tr.Duration != time.Second || tr.Kind != "nwc" {
		t.Errorf("header %s at %v for %v", tr.Kind, tr.StartedAt, tr.Duration)
	}
	r.Router.BorderFetches = 0
	for _, p := range r.Trace("nwc", "NWC*", "max", Work{}, start, 0).Phases {
		if strings.HasPrefix(p.Phase, "border-") {
			t.Errorf("border phase %q without a border fetch", p.Phase)
		}
	}
}
