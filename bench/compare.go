package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// exactWorkloads are the read-only, single-index workloads whose traced
// pass is sequential and deterministic: their counts must repeat
// exactly between two runs of the same input.
var exactWorkloads = map[string]bool{"uniform-read": true, "dense-read": true}

// exactCount reports whether a metric is a count taken per query by the
// traced pass, from the engine's own counters.
func exactCount(d metricDef) bool {
	if d.unit != "count" {
		return false
	}
	for _, prefix := range []string{"core.", "rstar.", "iwp.", "grid."} {
		if strings.HasPrefix(d.name, prefix) {
			return true
		}
	}
	return false
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles judges result file b against baseline a: one row per
// workload and end-to-end metric, by the metric's direction and bound.
// A row is "worse" when b is beyond the bound, and "unresolved" when
// the two cannot be compared: the metric is missing on one side, the
// percentile has too few samples beyond it, or the run's own spread (the
// standard deviation across the slices of its window, or across its
// set-ups) is wider than the bound. It returns 1 on any worse row, on
// unequal inputs and on unequal exact counts.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		files[i] = rf
	}
	return compareResults(files[0], files[1], stdout)
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	code := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stdout, format+"\n", args...)
		code = 1
	}
	fmt.Fprintf(stdout, "a: commit %s %s seed %d\nb: commit %s %s seed %d\n",
		a.Stamp.Commit, a.Stamp.GoVersion, a.Stamp.Seed, b.Stamp.Commit, b.Stamp.GoVersion, b.Stamp.Seed)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	for _, s := range specs {
		ra, rb := a.Workloads[s.name], b.Workloads[s.name]
		if ra == nil || rb == nil {
			fail("%s: missing from one file", s.name)
			continue
		}
		if ra.DatasetSHA256 != rb.DatasetSHA256 || ra.ScriptSHA256 != rb.ScriptSHA256 {
			fail("%s: inputs differ (dataset %.12s / %.12s, script %.12s / %.12s)",
				s.name, ra.DatasetSHA256, rb.DatasetSHA256, ra.ScriptSHA256, rb.ScriptSHA256)
			continue
		}
		for _, d := range registry {
			va, okA := ra.Metrics[d.name]
			vb, okB := rb.Metrics[d.name]
			if !d.endToEnd {
				if exactWorkloads[s.name] && exactCount(d) && okA && okB && va.Value != vb.Value {
					fail("%s: %s must repeat exactly: %s / %s", s.name, d.name, formatFloat(va.Value), formatFloat(vb.Value))
				}
				continue
			}
			if !okA && !okB {
				continue // no meaning on this workload
			}
			verdict, change := "ok", 0.0
			switch {
			case !okA || !okB:
				verdict = "unresolved"
			case va.Value == 0:
				// failed_share and wrong_share: any rise from zero is worse.
				if vb.Value > 0 {
					verdict = "worse"
				}
			default:
				change = (vb.Value - va.Value) / va.Value
				worse := change
				if d.higher {
					worse = -change
				}
				need := minSamples(d.name)
				switch {
				case va.Samples < need || vb.Samples < need:
					verdict = "unresolved"
				case va.Spread/va.Value > d.bound || vb.Spread/vb.Value > d.bound:
					verdict = "unresolved"
				case worse > d.bound:
					verdict = "worse"
				}
			}
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				s.name, d.name, va.Value, vb.Value, 100*change, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	return code
}
