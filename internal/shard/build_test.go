package shard

import (
	"bytes"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nwcq"
)

// TestBuildRefusesBadPoints: a NaN, an infinite or an out-of-space point
// makes Build, BuildPaged and NewSharded (Dir mode) return an error, not
// panic, and leaves the index already at the target byte for byte as it
// was. A sharded build refuses a non-finite point before it touches the
// directory; an out-of-space point is refused by the shard it lands in,
// before that shard's files are opened, and the manifest is written only
// after every shard is built. The shards built before the refusing one
// are rebuilt, so that row pins the refusing shard and the manifest.
func TestBuildRefusesBadPoints(t *testing.T) {
	inSpace := nwcq.WithSpace(0, 0, 100, 100)
	var good []nwcq.Point
	for i := 0; i < 60; i++ {
		good = append(good, nwcq.Point{X: float64(i%10)*10 + 5, Y: float64(i/10)*15 + 5, ID: uint64(i + 1)})
	}
	bad := []struct {
		name string
		p    nwcq.Point
		// kept names the files and directories, relative to the target,
		// a sharded build must leave unchanged; nil means all of them.
		kept []string
	}{
		{"nan", nwcq.Point{X: math.NaN(), Y: 5, ID: 900}, nil},
		{"inf", nwcq.Point{X: 5, Y: math.Inf(1), ID: 900}, nil},
		// (150, 50) lands in shard 3, the last one built.
		{"outside-space", nwcq.Point{X: 150, Y: 50, ID: 900}, []string{"manifest.json", "shard-003.nwcq", "shard-003.nwcq.wal"}},
	}
	builds := []struct {
		name    string
		sharded bool
		build   func(pts []nwcq.Point, dir string) error
	}{
		{"Build", false, func(pts []nwcq.Point, dir string) error {
			_, err := nwcq.Build(pts, inSpace)
			return err
		}},
		{"BuildPaged", false, func(pts []nwcq.Point, dir string) error {
			px, err := nwcq.BuildPaged(pts, filepath.Join(dir, "idx.nwcq"), inSpace)
			if err == nil {
				err = px.Close()
			}
			return err
		}},
		{"NewSharded", true, func(pts []nwcq.Point, dir string) error {
			s, err := NewSharded(pts, Options{Shards: 4, Space: space, Dir: dir, Build: []nwcq.BuildOption{inSpace}})
			if err == nil {
				err = s.Close()
			}
			return err
		}},
	}
	for _, b := range builds {
		for _, row := range bad {
			t.Run(b.name+"/"+row.name, func(t *testing.T) {
				dir := t.TempDir()
				if err := b.build(good, dir); err != nil {
					t.Fatalf("good points: %v", err)
				}
				before := readTree(t, dir)
				pts := append(append([]nwcq.Point{row.p}, good...), row.p)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					if err := b.build(pts, dir); err == nil {
						t.Fatal("accepted")
					}
				}()
				after := readTree(t, dir)
				if row.kept == nil || !b.sharded {
					if !maps.EqualFunc(before, after, bytes.Equal) {
						t.Error("files at the target changed")
					}
					return
				}
				for file, data := range before {
					if slices.ContainsFunc(row.kept, func(k string) bool { return file == k || strings.HasPrefix(file, k+"/") }) &&
						!bytes.Equal(after[file], data) {
						t.Errorf("%s changed", file)
					}
				}
			})
		}
	}
}

// readTree returns every regular file under dir by its slash-separated
// path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
