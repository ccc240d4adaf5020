package nwcq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// knobLedger justifies every public knob. A BuildOption constructor names
// a non-test file that calls it; an nwcserve flag names the option it
// feeds or the deployment setting it is. A knob only tests set has no
// row: it becomes a constant (or a buildOptions field tests set) instead.
var knobLedger = map[string]string{
	"WithBulkLoad":           "bench/env.go",
	"WithSpace":              "bench/env.go",
	"WithPageCacheSize":      "bench/env.go",
	"WithNodeCacheSize":      "bench/env.go",
	"WithWALSync":            "bench/env.go",
	"WithWALSyncInterval":    "cmd/nwcserve/main.go",
	"WithViewRetention":      "cmd/nwcserve/main.go",
	"WithSlowQueryThreshold": "cmd/nwcserve/main.go",
	"WithParallelism":        "cmd/nwcserve/main.go",
	"WithResultCache":        "cmd/nwcserve/main.go",

	"-data":              "deployment: dataset path",
	"-index":             "deployment: page file or shard directory path",
	"-addr":              "deployment: listen address",
	"-follow":            "deployment: leader URL",
	"-shutdown-timeout":  "deployment: grace period of the orchestrator's stop signal",
	"-log-format":        "deployment: log pipeline format",
	"-access-log":        "deployment: log volume",
	"-query-log-sample":  "deployment: log volume, server.WithQueryLog",
	"-max-replica-lag":   "deployment: follower readiness gate, repl.Config.MaxLag",
	"-shards":            "shard.Options.Shards",
	"-parallelism":       "WithParallelism, shard.Options.Parallelism",
	"-result-cache":      "WithResultCache, shard.Options.ResultCache",
	"-slowlog":           "WithSlowQueryThreshold",
	"-wal-sync":          "WithWALSync",
	"-wal-sync-interval": "WithWALSyncInterval",
	"-retain-views":      "WithViewRetention",
}

// TestKnobLedger holds the public BuildOption constructors of this
// package and the flags of cmd/nwcserve to knobLedger: each has a row, no
// row outlives its knob, an option's row names a file that calls it, and
// a flag that feeds an option names one the ledger holds.
func TestKnobLedger(t *testing.T) {
	knobs := map[string]bool{}
	for _, name := range buildOptionConstructors(t) {
		knobs[name] = true
	}
	for _, name := range serveFlags(t) {
		knobs["-"+name] = true
	}
	if len(knobs) < 20 {
		t.Fatalf("found %d knobs; the parsers have stopped finding them", len(knobs))
	}
	// An option a flag feeds opens its row or follows a comma.
	option := regexp.MustCompile(`(?:^|, )(With\w+)`)
	for knob := range knobs {
		why, ok := knobLedger[knob]
		switch {
		case !ok:
			t.Errorf("%s has no knobLedger row: name its non-test caller, or make it a constant", knob)
		case strings.HasPrefix(knob, "-"):
			for _, m := range option.FindAllStringSubmatch(why, -1) {
				if _, ok := knobLedger[m[1]]; !ok {
					t.Errorf("%s feeds %s, which the ledger does not hold", knob, m[1])
				}
			}
		default:
			src, err := os.ReadFile(filepath.FromSlash(why))
			if err != nil {
				t.Errorf("%s: %v", knob, err)
			} else if !strings.Contains(string(src), "nwcq."+knob+"(") {
				t.Errorf("%s: %s does not call it", knob, why)
			}
		}
	}
	for knob := range knobLedger {
		if !knobs[knob] {
			t.Errorf("knobLedger row %s names no option or flag", knob)
		}
	}
}

// buildOptionConstructors returns the exported functions of this
// package's non-test files that return a BuildOption.
func buildOptionConstructors(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "BuildOption" {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// flagDefiners maps the flag package's definers to the position of the
// flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1, "Var": 1,
}

// serveFlags returns the names of the flags cmd/nwcserve defines.
func serveFlags(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "nwcserve", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg, ok := flagDefiners[sel.Sel.Name]
		if !ok || len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}
