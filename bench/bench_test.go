package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// registry, which the program prints from, one list.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	listed := map[string]bool{}
	for _, m := range bj.EndToEnd {
		listed[m.Name] = true
		d, ok := metricByName(m.Name)
		if !ok || !d.driver || d.unit != m.Unit || d.bound != m.Bound || d.higher != (m.Better == "higher") {
			t.Errorf("end_to_end %+v does not match the registry's %+v", m, d)
		}
	}
	for _, m := range bj.PerLayer {
		listed[m.Name] = true
		d, ok := metricByName(m.Name)
		if !ok || d.driver || d.unit != m.Unit || d.higher != (m.Better == "higher") {
			t.Errorf("per_layer %+v does not match the registry's %+v", m, d)
		}
	}
	for _, d := range registry {
		if !listed[d.name] {
			t.Errorf("%s is in the registry and not in BENCHMARK.json", d.name)
		}
	}
}

// TestWorkloadsAtToyScale runs every workload end to end on 2 000
// points with a 0.3 s window and a 20-op traced pass: the checks must
// pass, the driver's line must carry every metric BENCHMARK.json lists,
// and every metric with a meaning on the workload must be reported.
func TestWorkloadsAtToyScale(t *testing.T) {
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	// Metrics the workload's own backend or mix gives no meaning to.
	absent := map[string][]string{
		"uniform-read": {"batch_p50_ms", "mutate_", "disk_", "recovery_s", "pager.", "wal.", "shard.", "qcache.", "loadgen.late", "loadgen.backlog", "loadgen.achieved", "index.insert_us", "index.delete_us"},
		"dense-read":   {"knwc_", "index.knwc_us", "batch_p50_ms", "mutate_", "disk_", "recovery_s", "pager.", "wal.", "shard.", "qcache.", "loadgen.late", "loadgen.backlog", "loadgen.achieved", "index.insert_us", "index.delete_us"},
		"paged-mixed":  {"batch_p50_ms", "shard.", "qcache.", "loadgen.late", "loadgen.backlog", "loadgen.achieved"},
		"sharded-open": {"mutate_", "disk_", "recovery_s", "pager.", "wal.", "index.insert_us", "index.delete_us"},
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			// Seed 1 puts an insert and its delete among the first 20 ops
			// of paged-mixed, so the traced pass times both.
			res, err := runWorkload(config{
				workload: s.name, seed: 1, points: 2000, traceOps: 20, trace: true, outDir: dir,
				warm: 100 * time.Millisecond, window: 300 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("checks failed: %+v", res)
			}
			for _, d := range registry {
				_, got := res.Metrics[d.name]
				want := true
				for _, prefix := range absent[s.name] {
					want = want && !strings.HasPrefix(d.name, prefix)
				}
				if got != want {
					t.Errorf("%s: reported=%v, want %v", d.name, got, want)
				}
			}
			for trace, names := range map[bool]int{false: len(bj.EndToEnd), true: len(bj.PerLayer)} {
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]value
				}
				if err := json.Unmarshal([]byte(res.driverLine(trace)), &line); err != nil {
					t.Fatalf("driver line (trace=%v): %v", trace, err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != names {
					t.Errorf("driver line (trace=%v): %+v, want %d metrics", trace, line, names)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, s.name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestCompare checks the verdicts -compare gives on two result files.
func TestCompare(t *testing.T) {
	mk := func(p50, share float64) *resultFile {
		rf := &resultFile{Workloads: map[string]*result{}}
		for _, s := range specs {
			rf.Workloads[s.name] = &result{Workload: s.name, DatasetSHA256: "d", ScriptSHA256: "s", Metrics: map[string]value{
				"nwc_p50_ms":               {Value: p50, Unit: "ms", Samples: 5000},
				"failed_share":             {Value: share, Unit: "share"},
				"rstar.node_visits_per_op": {Value: 330.5, Unit: "count"},
			}}
		}
		return rf
	}
	for _, c := range []struct {
		name string
		b    *resultFile
		code int
		want string
	}{
		{"same", mk(1, 0), 0, "ok"},
		{"within the bound", mk(1+timeBound-0.01, 0), 0, "ok"},
		{"beyond the bound", mk(1+timeBound+0.01, 0), 1, "worse"},
		{"a failure where there was none", mk(1, 0.001), 1, "worse"},
	} {
		var out bytes.Buffer
		if code := compareResults(mk(1, 0), c.b, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: code %d, want %d with %q in\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	// Too few samples beyond the percentile: beyond the bound or not, the
	// row cannot be judged.
	var out bytes.Buffer
	few := mk(2, 0)
	for _, r := range few.Workloads {
		r.Metrics["nwc_p50_ms"] = value{Value: 2, Unit: "ms", Samples: minSamples("nwc_p50_ms") - 1}
	}
	if code := compareResults(mk(1, 0), few, &out); code != 0 || !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "worse") {
		t.Errorf("too few samples: code %d\n%s", code, out.String())
	}
	// So is one whose own slices disagree by more than the bound.
	out.Reset()
	noisy := mk(2, 0)
	for _, r := range noisy.Workloads {
		r.Metrics["nwc_p50_ms"] = value{Value: 2, Unit: "ms", Samples: 5000, Spread: 2 * (timeBound + 0.01)}
	}
	if code := compareResults(mk(1, 0), noisy, &out); code != 0 || !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "worse") {
		t.Errorf("own spread beyond the bound: code %d\n%s", code, out.String())
	}
	out.Reset()
	other := mk(1, 0)
	other.Workloads["dense-read"].ScriptSHA256 = "t"
	if code := compareResults(mk(1, 0), other, &out); code != 1 || !strings.Contains(out.String(), "inputs differ") {
		t.Errorf("unequal inputs: code %d\n%s", code, out.String())
	}
	out.Reset()
	other = mk(1, 0)
	other.Workloads["uniform-read"].Metrics["rstar.node_visits_per_op"] = value{Value: 331, Unit: "count"}
	if code := compareResults(mk(1, 0), other, &out); code != 1 || !strings.Contains(out.String(), "must repeat exactly") {
		t.Errorf("unequal exact counts: code %d\n%s", code, out.String())
	}
}
