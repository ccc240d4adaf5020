// Command bench is the repository's benchmark: four HTTP workloads
// against the real internal/server handler, each in a process of its
// own, reporting end-to-end metrics from an untraced measured window
// and per-layer metrics from a span-traced sequential pass. See
// README.md beside this file.
//
//	go run -C bench . -seed 1                 all workloads, 30 s each
//	go run -C bench . -workload dense-read    one workload, in this process
//	go run -C bench . -compare a.json b.json  judge b against a
//
// BENCHMARK.json's command (sh bench/run.sh) runs the second form with
// the driver's flags and reads the JSON object on the last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp says what a result file was measured on, so two files prove
// they ran the same input on the same machine.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Points     int     `json:"points"`
}

// resultFile is what -json and the all-workloads form write.
type resultFile struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]*result `json:"workloads"`
}

func newStamp(cfg config) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.window.Seconds(), WarmupS: cfg.warm.Seconds(), Points: cfg.points,
	}
	// A checkout that is not a git repository keeps "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(rel))
	}
	return st
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the op script; the data does not depend on it")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 1, "1 runs the traced pass and the probes after the window, 0 leaves them out")
	jsonPath := fs.String("json", "", "with -workload: also write the result as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := config{
		workload: *workload, seed: *seed, points: fullPoints, trace: *trace != 0, outDir: outDir,
		warm: warmUp, window: time.Duration(*seconds * float64(time.Second)),
	}
	if cfg.workload != "" {
		return runOne(cfg, *jsonPath, stdout, stderr)
	}
	return runAll(cfg, args, stdout, stderr)
}

// runOne measures one workload in this process. The last line it prints
// is the JSON object BENCHMARK.json's driver reads.
func runOne(cfg config, jsonPath string, stdout, stderr io.Writer) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s dataset_sha256 %s\n%s script_sha256 %s\n", res.Workload, res.DatasetSHA256, res.Workload, res.ScriptSHA256)
	fmt.Fprintf(stdout, "%s checks attempted=%d failed=%d lost_acked=%d oracle_checked=%d oracle_skipped=%d oracle_wrong=%d\n",
		res.Workload, res.Attempted, res.Failed, res.LostAcked, res.OracleChecked, res.OracleSkipped, res.OracleWrong)
	io.WriteString(stdout, res.lines())
	if jsonPath != "" {
		if err := writeJSON(jsonPath, resultFile{Stamp: newStamp(cfg), Workloads: map[string]*result{res.Workload: res}}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, res.driverLine(cfg.trace))
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: checks failed (first error: %s)\n", res.Workload, res.FirstError)
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process, each with this
// process's own flags, and gathers their results into one stamped file.
func runAll(cfg config, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	all := resultFile{Stamp: newStamp(cfg), Workloads: map[string]*result{}}
	code := 0
	for _, s := range specs {
		part := filepath.Join(cfg.outDir, s.name+".json")
		cmd := exec.Command(self, append([]string{"-workload", s.name, "-json", part}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
			code = 1
		}
		var one resultFile
		data, err := os.ReadFile(part)
		if err == nil {
			err = json.Unmarshal(data, &one)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result: %v\n", s.name, err)
			code = 1
			continue
		}
		all.Workloads[s.name] = one.Workloads[s.name]
		os.Remove(part)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	if err := writeJSON(path, all); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	return code
}
