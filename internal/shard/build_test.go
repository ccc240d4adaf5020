package shard

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"maps"
	"math"
	"math/rand"
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

// TestNewShardedSameAtEveryWidth: a build on the worker pool is the
// sequential build, in memory and with Dir. At Parallelism 1 and 4 every
// shard holds the same points in the same tree order, the effective
// bounds are the same bit for bit (outliers beyond the space and a −0
// included), 200 routed NWC and kNWC queries give byte-identical
// answers, and the page files are byte-identical.
func TestNewShardedSameAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := straddlePoints(rng, 1000)
	negZero := math.Copysign(0, -1)
	pts = append(pts,
		nwcq.Point{X: -7, Y: 20, ID: 90001}, nwcq.Point{X: 130, Y: 112, ID: 90002},
		nwcq.Point{X: 60, Y: -3, ID: 90003}, nwcq.Point{X: negZero, Y: negZero, ID: 90004})
	queries := make([]nwcq.KQuery, 200)
	for i := range queries {
		queries[i] = nwcq.KQuery{Query: nwcq.Query{X: rng.Float64() * 100, Y: rng.Float64() * 100, Length: 6, Width: 6, N: 3}, K: 3, M: 1}
	}
	for _, paged := range []bool{false, true} {
		type built struct {
			contents [][]nwcq.Point
			bounds   []uint64
			answers  []byte
			files    map[string][]byte
		}
		var runs []built
		for _, width := range []int{1, 4} {
			opt := Options{Shards: 4, Space: space, Parallelism: width, Build: []nwcq.BuildOption{nwcq.WithBulkLoad()}}
			if paged {
				opt.Dir = t.TempDir()
			}
			sh, err := NewSharded(pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			var b built
			for _, ix := range sh.shards {
				all, err := ix.Window(-math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, math.MaxFloat64)
				if err != nil {
					t.Fatal(err)
				}
				b.contents = append(b.contents, all)
			}
			for _, r := range sh.shardBounds() {
				b.bounds = append(b.bounds, math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY))
			}
			// The scatter runs sequentially on both, so that only the
			// build differs.
			sh.SetParallelism(1)
			for _, q := range queries {
				res, err := sh.NWC(q.Query)
				if err != nil {
					t.Fatal(err)
				}
				kres, err := sh.KNWC(q)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal([]any{res.Found, res.Group, kres.Groups})
				if err != nil {
					t.Fatal(err)
				}
				b.answers = append(append(b.answers, data...), '\n')
			}
			if err := sh.Close(); err != nil {
				t.Fatal(err)
			}
			if paged {
				b.files = map[string][]byte{}
				for name, data := range readTree(t, opt.Dir) {
					if strings.HasSuffix(name, ".nwcq") {
						b.files[name] = data
					}
				}
				if len(b.files) != 4 {
					t.Fatalf("%d page files, want 4", len(b.files))
				}
			}
			runs = append(runs, b)
		}
		seq, par := runs[0], runs[1]
		for i := range seq.contents {
			if !slices.Equal(seq.contents[i], par.contents[i]) {
				t.Errorf("paged=%v: shard %d holds %d points at width 4, %d at width 1, or in another order", paged, i, len(par.contents[i]), len(seq.contents[i]))
			}
		}
		if !slices.Equal(seq.bounds, par.bounds) {
			t.Errorf("paged=%v: effective bounds differ: %x at width 1, %x at width 4", paged, seq.bounds, par.bounds)
		}
		if !bytes.Equal(seq.answers, par.answers) {
			t.Errorf("paged=%v: the answers differ between widths", paged)
		}
		if !maps.EqualFunc(seq.files, par.files, bytes.Equal) {
			t.Errorf("paged=%v: the page files differ between widths", paged)
		}
	}
}

// TestNewShardedFailedShard: a build whose shard 2 fails returns the
// same error at Parallelism 1 and 4 — the lowest failing shard's — and,
// with Dir, leaves no shard open and writes no manifest. Shard 2's page
// file cannot be created because a directory holds its path; in memory
// shard 2 refuses a point outside the space its Build options give it.
func TestNewShardedFailedShard(t *testing.T) {
	var pts []nwcq.Point
	for i := 0; i < 400; i++ {
		pts = append(pts, nwcq.Point{X: float64(i%20)*5 + 2, Y: float64(i/20)*5 + 2, ID: uint64(i + 1)})
	}
	// (30, 150) routes to shard 2 (column 0, row 1), outside the space.
	outside := append(slices.Clone(pts), nwcq.Point{X: 30, Y: 150, ID: 9000})
	inSpace := nwcq.WithSpace(space.MinX, space.MinY, space.MaxX, space.MaxY)
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(entries)
	}
	for _, paged := range []bool{false, true} {
		// Both widths build into one directory, so that the errors,
		// which name the path, can be compared.
		dir, in := "", outside
		if paged {
			dir, in = t.TempDir(), pts
			if err := os.MkdirAll(shardPath(dir, 2), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		var errs []string
		for _, width := range []int{1, 4} {
			opt := Options{Shards: 4, Space: space, Dir: dir, Parallelism: width, Build: []nwcq.BuildOption{inSpace}}
			before := openFDs()
			sh, err := NewSharded(in, opt)
			if err == nil {
				sh.Close()
				t.Fatalf("paged=%v, width %d: the build succeeded", paged, width)
			}
			if !strings.HasPrefix(err.Error(), "shard 2: ") {
				t.Errorf("paged=%v, width %d: error %q names another shard", paged, width, err)
			}
			errs = append(errs, err.Error())
			if !paged {
				continue
			}
			if after := openFDs(); after != before {
				t.Errorf("width %d: %d open files before the build, %d after it failed", width, before, after)
			}
			if _, err := os.Stat(filepath.Join(opt.Dir, "manifest.json")); !os.IsNotExist(err) {
				t.Errorf("width %d: a manifest was written (stat: %v)", width, err)
			}
		}
		if errs[0] != errs[1] {
			t.Errorf("paged=%v: width 1 fails with %q, width 4 with %q", paged, errs[0], errs[1])
		}
	}
}
