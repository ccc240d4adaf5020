package nwcq

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nwcq/internal/pager"
	"nwcq/internal/rstar"
	"nwcq/internal/wal"
)

func TestPagedBuildQueryReopen(t *testing.T) {
	pts := testPoints(3000, 10)
	path := filepath.Join(t.TempDir(), "index.nwcq")

	px, err := BuildPaged(pts, path, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 400, Y: 600, Length: 70, Width: 70, N: 5}
	want, err := px.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Found {
		t.Fatal("paged query found nothing")
	}
	if st := px.PageStats(); st.Writes == 0 {
		t.Error("no pages written")
	}
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPaged(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(pts))
	}
	got, err := re.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("reopened dist %g, want %g", got.Dist, want.Dist)
	}
	// The paged index agrees with the in-memory one exactly, including
	// the paper's I/O metric.
	mem, err := Build(pts, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := mem.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(memRes.Dist-got.Dist) > 1e-9 {
		t.Fatalf("paged dist %g, mem dist %g", got.Dist, memRes.Dist)
	}
	if memRes.Stats.NodeVisits != got.Stats.NodeVisits {
		t.Fatalf("paged visits %d, mem visits %d", got.Stats.NodeVisits, memRes.Stats.NodeVisits)
	}
}

func TestPagedInsertionBuild(t *testing.T) {
	pts := testPoints(800, 11)
	path := filepath.Join(t.TempDir(), "ins.nwcq")
	px, err := BuildPaged(pts, path) // one-by-one R* insertion
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	res, err := px.NWC(Query{X: 500, Y: 500, Length: 120, Width: 120, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("nothing found")
	}
	kres, err := px.KNWC(KQuery{Query: Query{X: 500, Y: 500, Length: 120, Width: 120, N: 4}, K: 2, M: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(kres.Groups) == 0 {
		t.Error("paged kNWC empty")
	}
}

// TestPagedFanoutValidation: the fan-out has no public option, but a
// node that outgrows its page is still refused, not truncated.
func TestPagedFanoutValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.nwcq")
	if _, err := BuildPaged(testPoints(500, 3), path, func(o *buildOptions) { o.maxEntries = 10000 }); err == nil {
		t.Error("oversized fan-out accepted for paged build")
	}
}

func TestOpenPagedMissingFile(t *testing.T) {
	if _, err := OpenPaged(filepath.Join(t.TempDir(), "absent.nwcq")); err == nil {
		t.Error("opening a missing file succeeded")
	}
}

// TestCacheSizeOptions exercises WithNodeCacheSize: a cache-disabled
// paged index answers identically (results and node visits) to the
// default cached one, just with every read physical.
func TestCacheSizeOptions(t *testing.T) {
	pts := testPoints(2000, 12)
	q := Query{X: 400, Y: 600, Length: 70, Width: 70, N: 5}

	dir := t.TempDir()
	cached, err := BuildPaged(pts, filepath.Join(dir, "cached.nwcq"), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	cold, err := BuildPaged(pts, filepath.Join(dir, "cold.nwcq"),
		WithBulkLoad(), WithNodeCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	a, err := cached.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cold.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || math.Abs(a.Dist-b.Dist) > 1e-9 {
		t.Fatalf("cached dist %g found=%v, cold dist %g found=%v", a.Dist, a.Found, b.Dist, b.Found)
	}
	if a.Stats.NodeVisits != b.Stats.NodeVisits {
		t.Fatalf("cached visits %d, cold visits %d — caching changed the I/O metric", a.Stats.NodeVisits, b.Stats.NodeVisits)
	}

	// Cold store: every read is a physical page access.
	st := cold.PageStats()
	if st.CacheHits != 0 {
		t.Errorf("cache-disabled index recorded %d hits", st.CacheHits)
	}
	if st.Reads == 0 {
		t.Error("cache-disabled index recorded no physical reads")
	}
	// Cached store: repeated queries are served from the node cache.
	if _, err := cached.NWC(q); err != nil {
		t.Fatal(err)
	}
	if st := cached.PageStats(); st.CacheHits == 0 {
		t.Error("cached index recorded no hits after repeated query")
	}
}

// TestPagedReadsAreCacheMisses: a paged index has one cache, of decoded
// nodes, and no second tier below it, so on an index built and then
// queried read-only each cache miss is one page read and each page read
// a miss, whatever the cache's size; with the cache off nothing hits.
func TestPagedReadsAreCacheMisses(t *testing.T) {
	pts := testPoints(5000, 15)
	for _, c := range []struct {
		name  string
		nodes int
	}{{"off", 0}, {"small", 16}, {"default", rstar.DefaultNodeCacheSize}} {
		t.Run(c.name, func(t *testing.T) {
			px, err := BuildPaged(pts, filepath.Join(t.TempDir(), "idx.nwcq"), WithBulkLoad(), WithNodeCacheSize(c.nodes))
			if err != nil {
				t.Fatal(err)
			}
			defer px.Close()
			for i := 0; i < 20; i++ {
				p := pts[(i*97)%len(pts)]
				if _, err := px.NWC(Query{X: p.X, Y: p.Y, Length: 40, Width: 40, N: 4}); err != nil {
					t.Fatal(err)
				}
				if _, err := px.KNWC(KQuery{Query: Query{X: p.X, Y: p.Y, Length: 40, Width: 40, N: 3}, K: 2, M: 1}); err != nil {
					t.Fatal(err)
				}
			}
			st := px.PageStats()
			if st.Reads == 0 || st.Reads != st.CacheMisses {
				t.Errorf("%d page reads for %d cache misses, want as many, and some", st.Reads, st.CacheMisses)
			}
			if hit := st.CacheHits > 0; hit != (c.nodes > 0) {
				t.Errorf("%d cache hits with a cache of %d nodes", st.CacheHits, c.nodes)
			}
		})
	}
}

// TestPagedMetricsExposePageCache checks the page and node-cache counters reach
// Index.Metrics (and therefore the server's GET /metrics, which serialises
// the same snapshot): present on paged indexes, absent on in-memory ones.
func TestPagedMetricsExposePageCache(t *testing.T) {
	pts := testPoints(1500, 13)
	px, err := BuildPaged(pts, filepath.Join(t.TempDir(), "m.nwcq"), WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	q := Query{X: 400, Y: 600, Length: 70, Width: 70, N: 5}
	for i := 0; i < 3; i++ {
		if _, err := px.NWC(q); err != nil {
			t.Fatal(err)
		}
	}
	snap := px.Metrics()
	if snap.PageCache == nil {
		t.Fatal("paged index metrics missing page_cache")
	}
	if snap.PageCache.Writes == 0 {
		t.Error("page_cache.writes = 0 after build")
	}
	if snap.PageCache.Hits == 0 {
		t.Error("page_cache.hits = 0 after repeated queries")
	}
	if hr := snap.PageCache.HitRate; hr <= 0 || hr > 1 {
		t.Errorf("hit_rate = %g, want (0, 1]", hr)
	}

	mem, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Metrics().PageCache != nil {
		t.Error("in-memory index metrics carry page_cache")
	}
}

// TestPagedMutationPersists exercises the view-publication write path
// on the paged store end to end: online Insert/Delete against a
// PagedIndex must answer like a freshly built index over the same
// points, and the mutated tree must survive Close + OpenPaged (shadow
// pages are published and the old ones recycled through the free list).
func TestPagedMutationPersists(t *testing.T) {
	pts := testPoints(600, 41)
	path := filepath.Join(t.TempDir(), "mutated.nwcq")
	px, err := BuildPaged(pts, path, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	extra := testPoints(100, 42)
	want := append([]Point(nil), pts...)
	for _, p := range extra {
		p.ID += 50_000
		if err := px.Insert(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	for i := 0; i < 80; i += 2 {
		found, err := px.Delete(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("Delete(%v) found nothing", pts[i])
		}
	}
	kept := want[:0]
	for _, p := range want {
		if p.ID < 80 && p.ID%2 == 0 {
			continue
		}
		kept = append(kept, p)
	}
	want = kept
	if px.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", px.Len(), len(want))
	}
	fresh, err := Build(want)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 500, Y: 500, Length: 90, Width: 90, N: 5}
	a, err := px.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || math.Abs(a.Dist-b.Dist) > 1e-9 {
		t.Fatalf("mutated paged index dist %v/%g, fresh %v/%g", a.Found, a.Dist, b.Found, b.Dist)
	}
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPaged(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(want))
	}
	c, err := re.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Found != b.Found || math.Abs(c.Dist-b.Dist) > 1e-9 {
		t.Fatalf("reopened dist %v/%g, fresh %v/%g", c.Found, c.Dist, b.Found, b.Dist)
	}
}

// pagedBuildSHA256 pins the bytes of the page file TestPagedBuildIO
// builds. The hash was taken from a build that wrote every page three
// times and read the leaves back: how often a build writes a page must
// not change what the file holds.
const pagedBuildSHA256 = "testdata/paged_build.sha256"

// TestPagedBuildIO: a paged build writes each node's page once and
// reads none back, and the file's bytes are the ones pinned in
// testdata. Reopening it with caches smaller than the tree reads each
// page once, plus at most one read per internal node for the IWP build.
func TestPagedBuildIO(t *testing.T) {
	pts := testPoints(20000, 44)
	path := filepath.Join(t.TempDir(), "index.nwcq")
	px, err := BuildPaged(pts, path, WithBulkLoad(), WithPageCacheSize(32), WithNodeCacheSize(16))
	if err != nil {
		t.Fatal(err)
	}
	st := px.PageStats()
	nodes := uint64(px.pages.NumPages() - 1) // the header page is not a node
	if st.Writes != nodes || st.Reads != 0 {
		t.Errorf("build of %d nodes wrote %d pages and read %d, want %d and 0", nodes, st.Writes, st.Reads, nodes)
	}
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(pagedBuildSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != strings.TrimSpace(string(want)) {
		t.Errorf("page file SHA-256 %s, want %s (%s)", got, strings.TrimSpace(string(want)), pagedBuildSHA256)
	}

	re, err := OpenPaged(path, WithPageCacheSize(32), WithNodeCacheSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reads := re.PageStats().Reads
	var walked, internal uint64
	if err := re.cur.Load().tree.Walk(func(n *rstar.Node) bool {
		walked++
		if !n.Leaf {
			internal++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if walked != nodes {
		t.Fatalf("reopened tree has %d nodes, the build wrote %d", walked, nodes)
	}
	if reads < nodes || reads > nodes+internal {
		t.Errorf("reopen read %d pages, want from %d (every node) to %d (and every internal node again)", reads, nodes, nodes+internal)
	}
	t.Logf("%d nodes (%d internal): build wrote %d pages, reopen read %d", nodes, internal, st.Writes, reads)
}

// TestOpenPagedRefusesUnbalancedTree hand-edits a page file, with valid
// checksums, so that a leaf-level page holds an internal node, and in a
// second file so that an upper-level page holds a leaf. Neither is a
// tree the index can serve, and OpenPaged must refuse both.
func TestOpenPagedRefusesUnbalancedTree(t *testing.T) {
	for _, c := range []struct {
		name string
		// from is the kind of page replaced, 1 for a leaf and 0 for an
		// internal node other than the root.
		from byte
	}{{"leaf-level page holds an internal node", 1}, {"upper-level page holds a leaf", 0}} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "index.nwcq")
			px, err := BuildPaged(walTestPoints(3000), path, WithBulkLoad())
			if err != nil {
				t.Fatal(err)
			}
			if px.TreeHeight() < 3 {
				t.Fatalf("tree height %d, want 3 or more for an internal node below the root", px.TreeHeight())
			}
			if err := px.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			page := func(id int) []byte { return raw[id*pager.PageSize : (id+1)*pager.PageSize] }
			root := int(binary.BigEndian.Uint32(page(0)[16:20]))
			victim, other := 0, 0
			for id := 1; id < len(raw)/pager.PageSize; id++ {
				switch {
				case id == root:
				case page(id)[0] == c.from && victim == 0:
					victim = id
				case page(id)[0] == 1 && other == 0:
					other = id
				}
			}
			if victim == 0 || other == 0 {
				t.Fatal("no page to replace")
			}
			p := page(victim)
			clear(p)
			if c.from == 1 {
				// An internal node of one entry: another leaf, under its MBR.
				p[0], p[2] = 0, 1
				for i, v := range []float64{0, 0, 500, 500} {
					binary.BigEndian.PutUint64(p[3+8*i:], math.Float64bits(v))
				}
				binary.BigEndian.PutUint32(p[35:], uint32(other))
			} else {
				// A leaf of one point.
				p[0], p[2] = 1, 1
				binary.BigEndian.PutUint64(p[3:], math.Float64bits(1))
				binary.BigEndian.PutUint64(p[11:], math.Float64bits(1))
				binary.BigEndian.PutUint64(p[19:], 1)
			}
			payload := len(p) - 4
			binary.BigEndian.PutUint32(p[payload:], crc32.ChecksumIEEE(p[:payload]))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenPaged(path)
			if err == nil {
				re.Close()
				t.Fatal("OpenPaged served a tree that is not balanced")
			}
			if !strings.Contains(err.Error(), "does not fit a balanced tree") {
				t.Fatalf("OpenPaged error %q, want the balanced-tree refusal", err)
			}
		})
	}
}

// errRunWrite is the failure runFailFile injects.
var errRunWrite = errors.New("injected run write failure")

// runFailFile is an in-memory page file whose writes of more than one
// page — the write-behind runs — fail.
type runFailFile struct{ *pager.MemFile }

func (f runFailFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) > pager.PageSize {
		return 0, errRunWrite
	}
	return f.MemFile.WriteAt(p, off)
}

// TestWriteBehindWriterErrorFailsBuild: a full run's write fails on the
// page store's writer goroutine, and the build fails with that error,
// whether the next full run's hand-off or the closing fsync meets it
// first, and publishes nothing: no index is returned, and the file
// holds no tree to open.
func TestWriteBehindWriterErrorFailsBuild(t *testing.T) {
	o := newBuildOptions([]BuildOption{WithBulkLoad()})
	// About 300 and 700 pages: one full run and a partial one, or two
	// full runs and more.
	for _, n := range []int{10000, 24000} {
		f, wfs := runFailFile{pager.NewMemFile()}, wal.NewMemFS()
		px, err := buildPagedOn(testPoints(n, 61), f, wfs, o)
		if !errors.Is(err, errRunWrite) || px != nil {
			t.Fatalf("%d points: build = (%v, %v), want no index and the injected error", n, px, err)
		}
		if re, err := openPagedOn(f.MemFile, wfs, o); err == nil {
			re.Close()
			t.Fatalf("%d points: the failed build left a tree to open", n)
		}
	}
}

// drainFile is an in-memory page file that holds every write of more
// than one page until open is closed, and records whether a write or a
// writeback hint came after Close, and how many run writes had landed
// by then.
type drainFile struct {
	*pager.MemFile
	open chan struct{}

	mu                 sync.Mutex
	closed, late       bool
	landed, landedSeen int
}

func (f *drainFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) > pager.PageSize {
		<-f.open
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.late = f.late || f.closed
	n, err := f.MemFile.WriteAt(p, off)
	if len(p) > pager.PageSize {
		f.landed++
	}
	return n, err
}

func (f *drainFile) StartWriteback(off, n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.late = f.late || f.closed
	return nil
}

func (f *drainFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed, f.landedSeen = true, f.landed
	return nil
}

// signalFS is a WAL directory whose Create fails, after it has told
// created.
type signalFS struct {
	wal.FS
	created chan struct{}
}

func (s signalFS) Create(string) (wal.File, error) {
	close(s.created)
	return nil, errors.New("injected log create failure")
}

// TestWriteBehindFailedBuildDrainsWriter: a build that fails while a
// full run is still on its way to the file closes the file only once
// the run's write and its writeback hint have landed, so neither can
// reach whatever file takes the descriptor next; a built index's Close
// does the same.
func TestWriteBehindFailedBuildDrainsWriter(t *testing.T) {
	o := newBuildOptions([]BuildOption{WithBulkLoad()})
	f := &drainFile{MemFile: pager.NewMemFile(), open: make(chan struct{})}
	wfs := signalFS{FS: wal.NewMemFS(), created: make(chan struct{})}
	built := make(chan error, 1)
	go func() {
		_, err := buildPagedOn(testPoints(10000, 62), f, wfs, o)
		built <- err
	}()
	// The tree is built and its first full run held: open the file
	// only once the log's creation has failed the build.
	<-wfs.created
	close(f.open)
	if err := <-built; err == nil {
		t.Fatal("a build whose log cannot be created succeeded")
	}
	f.mu.Lock()
	closed, late, seen := f.closed, f.late, f.landedSeen
	f.mu.Unlock()
	if !closed || late || seen != 1 {
		t.Fatalf("failed build: file closed %v after %d run writes landed, a write after Close %v; want closed after 1, none late", closed, seen, late)
	}

	g := &drainFile{MemFile: pager.NewMemFile(), open: make(chan struct{})}
	close(g.open)
	px, err := buildPagedOn(testPoints(30000, 63), g, wal.NewMemFS(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}
	if g.late || g.landedSeen < 3 {
		t.Fatalf("Close: %d run writes landed before the file closed, a write after Close %v", g.landedSeen, g.late)
	}
}
