package nwcq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignCitations holds every "DESIGN.md §N" a Go comment cites (and
// the "§M" listed after it, as in "DESIGN.md §16, §19") to a section
// DESIGN.md has, a "## N." heading. Rewriting or renumbering DESIGN.md's
// sections then fails here instead of leaving the code pointing at a
// section that is gone.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	cite := regexp.MustCompile(`DESIGN\.md((?:,? (?:and )?§\d+)+)`)
	number := regexp.MustCompile(`§(\d+)`)
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git and build output
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			// A citation may wrap onto the comment's next line.
			text := strings.Join(strings.Fields(group.Text()), " ")
			for _, c := range cite.FindAllStringSubmatch(text, -1) {
				for _, n := range number.FindAllStringSubmatch(c[1], -1) {
					cited++
					if !sections[n[1]] {
						t.Errorf("%s: cites DESIGN.md §%s, which has no \"## %s.\" heading", fset.Position(group.Pos()), n[1], n[1])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited < 20 {
		t.Errorf("found %d DESIGN.md citations in Go comments; the pattern has stopped matching them", cited)
	}
}

// TestCIRunPatterns holds every -run, -bench and -fuzz pattern of a `go
// test` line in .github/workflows/ci.yml to the tests the packages on
// that line declare: each |-separated alternative must match at least
// one Test, Fuzz or Example (-run), Benchmark (-bench) or Fuzz (-fuzz)
// function. Deleting or renaming a test a CI step names then fails here
// instead of leaving the step running nothing.
func TestCIRunPatterns(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|bench|fuzz)[= ]('[^']*'|"[^"]*"|[^\s'"]+)`)
	kinds := map[string]string{"run": "Test|Fuzz|Example", "bench": "Benchmark", "fuzz": "Fuzz"}
	checked, declared := 0, map[string][]string{}
	for _, line := range strings.Split(string(ci), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || strings.Contains(line, " -C ") {
			continue // no go test, or another module
		}
		var names []string
		for _, arg := range strings.Fields(line[i:]) {
			if strings.HasPrefix(arg, ".") {
				if declared[arg] == nil {
					declared[arg] = declaredTests(t, arg)
				}
				names = append(names, declared[arg]...)
			}
		}
		for _, m := range flag.FindAllStringSubmatch(line[i:], -1) {
			pattern := strings.Trim(m[2], `'"`)
			if pattern == "^$" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				re := regexp.MustCompile(strings.Split(alt, "/")[0])
				kind := regexp.MustCompile(`^(` + kinds[m[1]] + `)`)
				if !slices.ContainsFunc(names, func(n string) bool { return kind.MatchString(n) && re.MatchString(n) }) {
					t.Errorf("ci.yml: -%s alternative %q matches no %s function in %s", m[1], alt, kinds[m[1]], line[i:])
				}
				checked++
			}
		}
	}
	if checked < 50 {
		t.Errorf("checked %d CI patterns; the parser has stopped finding them", checked)
	}
}

// TestRetiredSuitesStayRetired holds the model test's doc comment
// (model_test.go) to the tree: no suite it lists as replaced, before a
// bullet's "→", is declared in any _test.go file of the module, and every
// suite it lists as still running is. A retired suite growing back beside
// the model, or a kept one renamed away, then fails here.
func TestRetiredSuitesStayRetired(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "model_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	for _, g := range f.Comments {
		if text := g.Text(); strings.Contains(text, "It replaces these") {
			doc = text
		}
	}
	replaced, kept, ok := strings.Cut(doc, "These still run")
	if !ok {
		t.Fatal("model_test.go's doc comment lists no replaced and kept suites")
	}
	declared, name := declaredTests(t, "./..."), regexp.MustCompile(`\bTest[A-Z]\w*`)
	retired := 0
	for _, bullet := range strings.Split(replaced, "\n  - ")[1:] {
		before, _, _ := strings.Cut(bullet, "→")
		for _, n := range name.FindAllString(before, -1) {
			if retired++; slices.Contains(declared, n) {
				t.Errorf("%s is declared, but model_test.go lists it as replaced by the model", n)
			}
		}
	}
	stays := name.FindAllString(kept, -1)
	for _, n := range stays {
		if !slices.Contains(declared, n) {
			t.Errorf("model_test.go lists %s as still running, and no _test.go file declares it", n)
		}
	}
	if retired < 10 || len(stays) < 10 {
		t.Errorf("found %d replaced and %d kept suites in model_test.go; the pattern has stopped matching them", retired, len(stays))
	}
}

// declaredTests lists the top-level function names in the _test.go files
// of pkg, a go test package argument such as ".", "./internal/core/" or
// "./..." (every package of this module; bench/ is a module of its own).
func declaredTests(t *testing.T, pkg string) []string {
	var names []string
	root, recursive := filepath.Clean(strings.TrimSuffix(pkg, "...")), strings.HasSuffix(pkg, "...")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (!recursive || strings.HasPrefix(d.Name(), ".") || path == "bench"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
