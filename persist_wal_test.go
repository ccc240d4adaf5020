package nwcq

import (
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"nwcq/internal/pager"
	"nwcq/internal/wal"
)

func walTestPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64((i * 73) % 500), Y: float64((i * 149) % 500), ID: uint64(i + 1)}
	}
	return pts
}

// activeSegment returns the path of the WAL's highest-named segment.
func activeSegment(t *testing.T, indexPath string) string {
	t.Helper()
	entries, err := os.ReadDir(walDirFor(indexPath))
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments found")
	}
	sort.Strings(segs)
	return filepath.Join(walDirFor(indexPath), segs[len(segs)-1])
}

// TestOpenPagedCorruptedPage: a flipped byte in any tree page must
// surface as a checksum error from OpenPaged, not silent corruption.
func TestOpenPagedCorruptedPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nwc")
	px, err := BuildPaged(walTestPoints(200), path, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in every page after the header: whichever
	// pages the open path reads, the damage is seen.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(pager.PageSize) + 100; off < st.Size(); off += pager.PageSize {
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	if _, err := OpenPaged(path); err == nil {
		t.Fatal("OpenPaged succeeded on a corrupted file")
	} else if !errors.Is(err, pager.ErrChecksum) {
		t.Fatalf("OpenPaged error %v does not wrap pager.ErrChecksum", err)
	}
}

// TestOpenPagedTornWALTail: a crash can tear the last log frame
// mid-write; recovery must keep every record before it and drop the
// torn one, without error.
func TestOpenPagedTornWALTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nwc")
	px, err := BuildPaged(walTestPoints(50), path)
	if err != nil {
		t.Fatal(err)
	}
	keep := Point{X: 101, Y: 102, ID: 9001}
	torn := Point{X: 201, Y: 202, ID: 9002}
	if err := px.Insert(keep); err != nil {
		t.Fatal(err)
	}
	if err := px.Insert(torn); err != nil {
		t.Fatal(err)
	}
	// Abandon px (simulated crash; Close would checkpoint), then tear
	// the active segment two bytes into its final frame.
	seg := activeSegment(t, path)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenPaged(path)
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer rec.Close()
	if got := rec.Len(); got != 51 {
		t.Fatalf("recovered %d points, want 51 (base 50 + the intact insert)", got)
	}
	hasPoint := func(p Point) bool {
		pts, err := rec.Window(p.X-0.5, p.Y-0.5, p.X+0.5, p.Y+0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pts {
			if q == p {
				return true
			}
		}
		return false
	}
	if !hasPoint(keep) {
		t.Fatal("intact record lost in recovery")
	}
	if hasPoint(torn) {
		t.Fatal("torn record resurrected by recovery")
	}
}

// TestReopenedLogStartsPastCheckpoint: a build starts its log past the
// LSN its base stands for, in one segment and with no marker record, and
// a log reopened with no record past the page file's checkpoint starts
// above that checkpoint. A log that restarted at LSN 1 under a header
// checkpointed at 1 handed its first insert an LSN the checkpoint
// covers, and the next recovery skipped the acknowledged insert.
func TestReopenedLogStartsPastCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nwcq")
	pts := walTestPoints(200)
	px, err := BuildPaged(pts, path, WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDirFor(path), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("a fresh build left %d segment files, want 1: %v", len(segs), segs)
	}
	if st := px.Metrics().WAL; st.Appends != 0 || st.Fsyncs != 0 || st.AppendedLSN != 1 {
		t.Fatalf("a fresh build logged %d records in %d fsyncs up to LSN %d, want none, at LSN 1", st.Appends, st.Fsyncs, st.AppendedLSN)
	}
	if _, err := px.StreamFrom(1); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("a stream from LSN 1 of a bulk-built index: %v, want wal.ErrCompacted", err)
	}
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	px, err = OpenPaged(path, WithWALSync(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	extra := Point{X: pts[0].X + 0.5, Y: pts[0].Y + 0.5, ID: 1 << 40}
	if err := px.Insert(extra); err != nil {
		t.Fatal(err)
	}
	// Copy the files while the index is open, as a crash leaves them:
	// the insert is in the log only.
	crashed := filepath.Join(t.TempDir(), "idx.nwcq")
	copyFile(t, path, crashed)
	if err := os.MkdirAll(walDirFor(crashed), 0o755); err != nil {
		t.Fatal(err)
	}
	segs, err = filepath.Glob(filepath.Join(walDirFor(path), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		copyFile(t, seg, filepath.Join(walDirFor(crashed), filepath.Base(seg)))
	}
	re, err := OpenPaged(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != len(pts)+1 {
		t.Fatalf("recovered %d points, want %d: the acknowledged insert was lost", got, len(pts)+1)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenPagedTornPageRun crashes a paged build, and then a commit
// that extends the file, at every I/O step, tearing the write the crash
// lands on. The pager writes appended pages in runs of up to 256, so
// some of those writes carry many pages and the tear cuts one in half;
// the commit's new pages, reserved and then written, go out in one run.
// OpenPaged must then refuse the file or open the last checkpoint plus
// the log: a point set some caller could have seen, read in a walk that
// checks every page the tree reaches. A torn page it reached would fail
// that walk's checksum.
func TestOpenPagedTornPageRun(t *testing.T) {
	base := walTestPoints(2500) // 625 pages at the model's fan-out 8
	o := modelOptions
	o.bulkLoad = true
	batch := make([]Point, 300)
	for i := range batch {
		batch[i] = Point{X: float64(i%20) + 0.5, Y: float64(i/20) + 0.5, ID: uint64(100000 + i)}
	}
	sorted := func(sets ...[]Point) []Point {
		pts := slices.Concat(sets...)
		slices.SortFunc(pts, func(a, b Point) int { return cmp.Compare(a.ID, b.ID) })
		return pts
	}
	all := func(px *PagedIndex) []Point {
		pts, err := px.Window(-1, -1, 1000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return sorted(pts)
	}
	for _, phase := range []string{"build", "commit"} {
		tears := 0
		for k := 0; ; k++ {
			d := NewMemDisk()
			if phase == "build" {
				d.ArmCrash(k)
			}
			f, fs := d.files()
			px, err := buildPagedOn(base, f, fs, o)
			acked := false
			if phase == "commit" {
				if err != nil {
					t.Fatal(err)
				}
				d.ArmCrash(k)
				acked = px.InsertBatch(batch) == nil
			}
			if !d.Crashed() {
				// The commit's 72 new pages are reserved into the
				// write-behind run and then written there, so they reach
				// the file in one write, each once.
				if want := []int{72 * pager.PageSize}; phase == "commit" && !slices.Equal(d.inj.pageWrites, want) {
					t.Fatalf("commit: page-file writes of %v bytes, want %v", d.inj.pageWrites, want)
				}
				d.ArmCrash(-1)
				if err := px.Close(); err != nil {
					t.Fatal(err)
				}
				rec, err := d.Open()
				if err != nil {
					t.Fatalf("%s: reopening the uninjured run: %v", phase, err)
				}
				want := sorted(base)
				if phase == "commit" {
					want = sorted(base, batch)
				}
				if got := all(rec); !slices.Equal(got, want) {
					t.Fatalf("%s: the uninjured run reopens with %d points, want %d", phase, len(got), len(want))
				}
				rec.Close()
				if tears == 0 {
					t.Fatalf("%s: no crash in %d steps landed on a multi-page write", phase, k)
				}
				break
			}
			if d.inj.pageTear > pager.PageSize {
				tears++
			}
			// A build that crashed before its checkpoint leaves no tree
			// to open: the one header it wrote is Create's. Once a header
			// names a tree, every page of it must be whole: refusing the
			// file would lose what it holds.
			named := phase == "commit" || d.inj.headers > 1
			rec, err := d.Open()
			if err != nil {
				if named {
					t.Fatalf("%s, crash at step %d (page tear %d bytes): %v", phase, k, d.inj.pageTear, err)
				}
				continue
			}
			got := all(rec)
			var want [][]Point
			switch {
			case phase == "build":
				want = [][]Point{nil, sorted(base)}
			case acked:
				want = [][]Point{sorted(base, batch)}
			default:
				want = [][]Point{sorted(base), sorted(base, batch)}
			}
			if !slices.ContainsFunc(want, func(w []Point) bool { return slices.Equal(got, w) }) {
				t.Fatalf("%s, crash at step %d (page tear %d bytes): recovered %d points, want one of %d sets", phase, k, d.inj.pageTear, len(got), len(want))
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPagedCloseIdempotent: double Close is a supported pattern
// (defer px.Close() plus an explicit error-checked Close).
func TestPagedCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nwc")
	px, err := BuildPaged(walTestPoints(20), path)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := px.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPagedWALSyncPolicies: interval and never relax when records hit
// stable storage, but a clean Close still makes everything durable.
func TestPagedWALSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  BuildOption
	}{
		{"interval", WithWALSyncInterval(5 * time.Millisecond)},
		{"never", WithWALSync(SyncNever)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "idx.nwc")
			px, err := BuildPaged(walTestPoints(30), path, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := px.Insert(Point{X: float64(600 + i), Y: 600, ID: uint64(8000 + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if m := px.Metrics(); m.WAL == nil || m.WAL.SyncPolicy != tc.name {
				t.Fatalf("Metrics().WAL = %+v, want sync policy %q", m.WAL, tc.name)
			}
			if err := px.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenPaged(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Len(); got != 40 {
				t.Fatalf("reopened index has %d points, want 40", got)
			}
		})
	}
}

// TestPagedWALMetricsExposed: the WAL's activity must be visible in
// both the JSON metrics snapshot and the Prometheus rendering, and the
// pager's fsync count must appear beside the page-cache counters.
func TestPagedWALMetricsExposed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nwc")
	px, err := BuildPaged(walTestPoints(30), path)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	for i := 0; i < 5; i++ {
		if err := px.Insert(Point{X: float64(10 * i), Y: 42, ID: uint64(6000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	m := px.Metrics()
	if m.WAL == nil {
		t.Fatal("Metrics().WAL is nil for a WAL-backed index")
	}
	if m.WAL.Appends < 5 || m.WAL.Fsyncs == 0 {
		t.Fatalf("WAL metrics %+v do not reflect 5 synced inserts", m.WAL)
	}
	if m.WAL.DurableLSN != m.WAL.AppendedLSN {
		t.Fatalf("SyncAlways at rest: durable %d != appended %d", m.WAL.DurableLSN, m.WAL.AppendedLSN)
	}
	if m.PageCache == nil {
		t.Fatal("Metrics().PageCache is nil for a paged index")
	}
	if st := px.PageStats(); st.Syncs == 0 {
		t.Fatal("PageStats().Syncs is zero after build checkpoint")
	} else if m.PageCache.Syncs != st.Syncs {
		t.Fatalf("snapshot Syncs %d != PageStats Syncs %d", m.PageCache.Syncs, st.Syncs)
	}
	var sb strings.Builder
	if err := px.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nwcq_wal_appends_total", "nwcq_wal_fsyncs_total", "nwcq_page_syncs_total", "nwcq_wal_durable_lsn"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Prometheus output missing %s", want)
		}
	}
}
