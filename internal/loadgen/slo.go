package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// SLO is one parsed objective. The textual grammar is
//
//	<class>_p<quantile> < <latency> [@ <rate>rps|krps]
//
// e.g. "nwc_p99<5ms", "all_p999<50ms", "knwc_p95<2ms@1krps". The class
// is an op class or "all"; the quantile digits read as decimals after
// the point (p50 → 0.50, p999 → 0.999); the optional @-clause demands
// the class also sustained at least that throughput — a latency bound
// is trivial to meet at one request per second, so rate floors keep the
// verdict honest.
type SLO struct {
	Spec      string        // original text
	Class     string        // op class or "all"
	Quantile  float64       // (0, 1)
	Threshold time.Duration // latency bound, exclusive
	MinRPS    float64       // 0 = no throughput floor
}

// ParseSLO parses one objective.
func ParseSLO(spec string) (SLO, error) {
	s := SLO{Spec: spec}
	text := strings.ReplaceAll(spec, " ", "")
	lt := strings.IndexByte(text, '<')
	if lt < 0 {
		return s, fmt.Errorf("loadgen: SLO %q has no '<' (want e.g. nwc_p99<5ms)", spec)
	}
	left, right := text[:lt], text[lt+1:]

	p := strings.LastIndex(left, "_p")
	if p < 1 {
		return s, fmt.Errorf("loadgen: SLO %q lacks a <class>_p<quantile> left side", spec)
	}
	s.Class = left[:p]
	switch s.Class {
	case ClassNWC, ClassKNWC, ClassBatch, ClassMutate, ClassSub, ClassAll:
	default:
		return s, fmt.Errorf("loadgen: SLO %q names unknown class %q", spec, s.Class)
	}
	digits := left[p+2:]
	if digits == "" {
		return s, fmt.Errorf("loadgen: SLO %q has an empty quantile", spec)
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n <= 0 {
		return s, fmt.Errorf("loadgen: SLO %q has quantile %q, want digits like 50, 95, 99, 999", spec, digits)
	}
	s.Quantile = float64(n) / math.Pow(10, float64(len(digits)))
	if !(s.Quantile > 0 && s.Quantile < 1) { // 10^len overflows past 308 digits
		return s, fmt.Errorf("loadgen: SLO %q quantile %g not below 1", spec, s.Quantile)
	}

	if at := strings.IndexByte(right, '@'); at >= 0 {
		rate := right[at+1:]
		right = right[:at]
		mult := 1.0
		switch {
		case strings.HasSuffix(rate, "krps"):
			mult, rate = 1000, strings.TrimSuffix(rate, "krps")
		case strings.HasSuffix(rate, "rps"):
			rate = strings.TrimSuffix(rate, "rps")
		default:
			return s, fmt.Errorf("loadgen: SLO %q rate floor %q lacks an rps/krps suffix", spec, rate)
		}
		v, err := strconv.ParseFloat(rate, 64)
		if s.MinRPS = v * mult; err != nil || !(v > 0) || math.IsInf(s.MinRPS, 1) {
			// !(v > 0) refuses NaN, which Evaluate's MinRPS > 0 would skip.
			return s, fmt.Errorf("loadgen: SLO %q has unparseable rate floor", spec)
		}
	}
	s.Threshold, err = time.ParseDuration(right)
	if err != nil || s.Threshold <= 0 {
		return s, fmt.Errorf("loadgen: SLO %q has unparseable latency bound %q", spec, right)
	}
	return s, nil
}

// ParseSLOs parses a comma-separated list; empty input is no SLOs.
func ParseSLOs(list string) ([]SLO, error) {
	var out []SLO
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		s, err := ParseSLO(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// LoadSLOFile reads objectives from a JSON file: either a bare array of
// spec strings or an object with a "slos" array.
func LoadSLOFile(path string) ([]SLO, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []string
	if err := json.Unmarshal(raw, &specs); err != nil {
		var wrapped struct {
			SLOs []string `json:"slos"`
		}
		if err2 := json.Unmarshal(raw, &wrapped); err2 != nil || wrapped.SLOs == nil {
			return nil, fmt.Errorf("loadgen: %s: want a JSON array of SLO specs or {\"slos\": [...]}", path)
		}
		specs = wrapped.SLOs
	}
	var out []SLO
	for _, spec := range specs {
		s, err := ParseSLO(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// SLOResult is one objective's verdict against a report.
type SLOResult struct {
	Spec        string  `json:"spec"`
	Passed      bool    `json:"passed"`
	ObservedMs  float64 `json:"observed_ms"`
	ThresholdMs float64 `json:"threshold_ms"`
	ObservedRPS float64 `json:"observed_rps,omitempty"`
	MinRPS      float64 `json:"min_rps,omitempty"`
	Detail      string  `json:"detail,omitempty"`
}

// classReport resolves an SLO's class in a report; "all" reads the
// aggregate.
func classReport(rep *Report, class string) (ClassReport, bool) {
	if class == ClassAll {
		return rep.Total, true
	}
	c, ok := rep.Classes[class]
	return c, ok
}

// quantileMs reads the requested quantile off a class report. Only the
// archived quantiles are addressable; the grammar admits any digits, so
// unknown ones fail the objective loudly instead of guessing.
func quantileMs(c ClassReport, q float64) (float64, bool) {
	switch q {
	case 0.50:
		return c.LatencyP50Ms, true
	case 0.95:
		return c.LatencyP95Ms, true
	case 0.99:
		return c.LatencyP99Ms, true
	case 0.999:
		return c.LatencyP999Ms, true
	}
	return 0, false
}

// Evaluate scores every objective against the report and stores the
// verdicts on it. It returns true only when every objective passed; an
// empty slice passes vacuously.
func Evaluate(slos []SLO, rep *Report) bool {
	rep.SLOs = rep.SLOs[:0]
	passed := true
	for _, s := range slos {
		res := SLOResult{Spec: s.Spec, ThresholdMs: float64(s.Threshold) / 1e6, MinRPS: s.MinRPS}
		if c, ok := classReport(rep, s.Class); !ok || c.Count == 0 {
			res.Detail = fmt.Sprintf("no %s samples in the measured window", s.Class)
		} else if obs, known := quantileMs(c, s.Quantile); !known {
			res.Detail = fmt.Sprintf("quantile p%g not archived (have p50/p95/p99/p999)", s.Quantile*100)
		} else if math.IsNaN(obs) {
			// A NaN quantile is an empty distribution that slipped past the
			// count check (e.g. a hand-edited report): fail as loudly as a
			// missing class, and keep ObservedMs at 0 so the report still
			// encodes (JSON rejects NaN).
			res.Detail = fmt.Sprintf("p%g of %s is undefined: empty latency distribution", s.Quantile*100, s.Class)
		} else {
			res.ObservedMs = obs
			res.ObservedRPS = c.ThroughputRPS
			res.Passed = obs < res.ThresholdMs
			if s.MinRPS > 0 && c.ThroughputRPS < s.MinRPS {
				res.Passed = false
				res.Detail = fmt.Sprintf("throughput %.1f rps below the %.1f rps floor", c.ThroughputRPS, s.MinRPS)
			}
		}
		if !res.Passed {
			passed = false
		}
		rep.SLOs = append(rep.SLOs, res)
	}
	rep.Passed = passed
	return passed
}
