package nwcq

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
