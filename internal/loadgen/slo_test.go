package loadgen

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseSLO(t *testing.T) {
	cases := []struct {
		spec      string
		class     string
		quantile  float64
		threshold time.Duration
		minRPS    float64
	}{
		{"nwc_p99<5ms", ClassNWC, 0.99, 5 * time.Millisecond, 0},
		{"all_p999<50ms", ClassAll, 0.999, 50 * time.Millisecond, 0},
		{"knwc_p95<2ms@1krps", ClassKNWC, 0.95, 2 * time.Millisecond, 1000},
		{"mutate_p50<1s@500rps", ClassMutate, 0.50, time.Second, 500},
		{"batch_p50 < 100ms @ 1.5krps", ClassBatch, 0.50, 100 * time.Millisecond, 1500},
	}
	for _, c := range cases {
		s, err := ParseSLO(c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if s.Class != c.class || s.Quantile != c.quantile || s.Threshold != c.threshold || s.MinRPS != c.minRPS {
			t.Errorf("%q parsed to %+v", c.spec, s)
		}
	}

	for _, bad := range []string{
		"",
		"nwc_p99",            // no bound
		"p99<5ms",            // no class
		"zzz_p99<5ms",        // unknown class
		"nwc_p99<zzz",        // unparseable duration
		"nwc_p99<-5ms",       // negative bound
		"nwc_p0<5ms",         // zero quantile
		"nwc_p<5ms",          // empty quantile
		"nwc_p99<5ms@3",      // rate floor without unit
		"nwc_p99<5ms@krps",   // rate floor without number
		"nwc_p99<5ms@-1rps",  // negative rate floor
		"nwc_p99<5ms@NaNrps", // a floor Evaluate would skip
		"nwc_p99<5ms@infkrps",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs(" nwc_p99<5ms, all_p999<50ms ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 2 {
		t.Fatalf("%d objectives, want 2", len(slos))
	}
	if slos, err := ParseSLOs(""); err != nil || len(slos) != 0 {
		t.Errorf("empty list: %v, %d objectives", err, len(slos))
	}
	if _, err := ParseSLOs("nwc_p99<5ms,bogus"); err == nil {
		t.Error("bad member accepted")
	}
}

func TestLoadSLOFile(t *testing.T) {
	dir := t.TempDir()
	bare := filepath.Join(dir, "bare.json")
	os.WriteFile(bare, []byte(`["nwc_p99<5ms", "all_p999<50ms"]`), 0o644)
	wrapped := filepath.Join(dir, "wrapped.json")
	os.WriteFile(wrapped, []byte(`{"slos": ["knwc_p95<2ms@1krps"]}`), 0o644)

	if slos, err := LoadSLOFile(bare); err != nil || len(slos) != 2 {
		t.Errorf("bare array: %v, %d objectives", err, len(slos))
	}
	slos, err := LoadSLOFile(wrapped)
	if err != nil || len(slos) != 1 {
		t.Fatalf("wrapped: %v, %d objectives", err, len(slos))
	}
	if slos[0].MinRPS != 1000 {
		t.Errorf("wrapped rate floor = %g", slos[0].MinRPS)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"not": "slos"}`), 0o644)
	if _, err := LoadSLOFile(bad); err == nil {
		t.Error("shapeless file accepted")
	}
	if _, err := LoadSLOFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEvaluate(t *testing.T) {
	rep := &Report{
		Total: ClassReport{Count: 1000, ThroughputRPS: 900, LatencyP999Ms: 40},
		Classes: map[string]ClassReport{
			ClassNWC:  {Count: 800, ThroughputRPS: 700, LatencyP50Ms: 1, LatencyP99Ms: 4.2},
			ClassKNWC: {Count: 200, ThroughputRPS: 200, LatencyP95Ms: 8},
		},
	}
	mustSLOs := func(list string) []SLO {
		t.Helper()
		slos, err := ParseSLOs(list)
		if err != nil {
			t.Fatal(err)
		}
		return slos
	}

	if !Evaluate(mustSLOs("nwc_p99<5ms,all_p999<50ms"), rep) {
		t.Errorf("passing objectives failed: %+v", rep.SLOs)
	}
	if !rep.Passed || len(rep.SLOs) != 2 {
		t.Errorf("report verdict %v with %d results", rep.Passed, len(rep.SLOs))
	}
	if rep.SLOs[0].ObservedMs != 4.2 {
		t.Errorf("observed = %g, want 4.2", rep.SLOs[0].ObservedMs)
	}

	// Latency bound violated.
	if Evaluate(mustSLOs("knwc_p95<2ms"), rep) || rep.Passed {
		t.Error("violated latency bound passed")
	}
	// Latency fine but throughput floor missed.
	if Evaluate(mustSLOs("nwc_p99<5ms@1krps"), rep) {
		t.Error("missed throughput floor passed")
	}
	if rep.SLOs[0].Detail == "" {
		t.Error("throughput failure carries no detail")
	}
	// Class with no samples fails loudly.
	if Evaluate(mustSLOs("batch_p50<1s"), rep) {
		t.Error("objective on an empty class passed")
	}
	// Unarchived quantile fails loudly.
	if Evaluate(mustSLOs("nwc_p90<1s"), rep) {
		t.Error("objective on an unarchived quantile passed")
	}
	// No objectives: vacuous pass.
	if !Evaluate(nil, rep) {
		t.Error("empty objective list failed")
	}
}

// FuzzParseSLO holds ParseSLO to its contract on any spec: an error, or an
// SLO with a known class, a quantile strictly between 0 and 1, a positive
// threshold and a finite rate floor of 0 or more — never a panic. The seed
// corpus (testdata/fuzz/FuzzParseSLO) holds the floors that once parsed:
// NaN, which Evaluate skipped, and +Inf.
func FuzzParseSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			return
		}
		switch s.Class {
		case ClassNWC, ClassKNWC, ClassBatch, ClassMutate, ClassSub, ClassAll:
		default:
			t.Fatalf("%q: class %q", spec, s.Class)
		}
		if !(s.Quantile > 0 && s.Quantile < 1) || s.Threshold <= 0 || !(s.MinRPS >= 0) || math.IsInf(s.MinRPS, 1) {
			t.Fatalf("%q parsed to %+v", spec, s)
		}
	})
}
