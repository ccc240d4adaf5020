package nwcq

import (
	"strings"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/wal"
)

// Replication below what the model test (model_test.go) drives: the
// stream's abort filter at the WAL level, and the order in which a
// poisoned close gives up. A follower's catch-up, its crashes and a
// leader's restart are the model's opFollower, opCrash and opReopen.

// memPaged is one index's backing store: a page file plus a WAL
// directory, both in memory and both surviving an abandoned index the
// way a disk survives a killed process.
type memPaged struct {
	pf  *wal.MemFile
	mfs *wal.MemFS
}

func newMemPaged() *memPaged {
	return &memPaged{pf: wal.NewMemFile(), mfs: wal.NewMemFS()}
}

func (m *memPaged) build(t *testing.T, pts []Point, o buildOptions) *PagedIndex {
	t.Helper()
	px, err := buildPagedOn(pts, m.pf, m.mfs, o)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return px
}

func (m *memPaged) open(t *testing.T, o buildOptions) *PagedIndex {
	t.Helper()
	px, err := openPagedOn(m.pf, m.mfs, o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return px
}

// TestReplicationStreamAbortFiltering pins the settled-fate machine at
// the WAL level: aborted pairs vanish, bare aborts are skipped, and a
// record is held until its fate is decided.
func TestReplicationStreamAbortFiltering(t *testing.T) {
	mfs := wal.NewMemFS()
	l, err := wal.Open(mfs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pt := func(id uint64) []byte {
		return encodeMutation(recInsert, []geom.Point{{X: float64(id), Y: float64(id), ID: id}})
	}
	lsn1, _ := l.Append(pt(1))
	lsn2, _ := l.Append(encodeAbort(lsn1))
	lsn3, _ := l.Append(pt(3))
	if err := l.Sync(lsn3); err != nil {
		t.Fatal(err)
	}
	d := &durability{log: l}
	d.settled.Store(lsn3)

	r, err := l.NewReader(1)
	if err != nil {
		t.Fatal(err)
	}
	st := &ReplicationStream{d: d, r: r}
	defer st.Close()
	rec, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.LSN != lsn3 {
		t.Fatalf("first delivered record = %+v, want lsn %d (aborted pair %d/%d filtered)", rec, lsn3, lsn1, lsn2)
	}

	// A record with fate unknown is held even though durable.
	lsn4, _ := l.Append(pt(4))
	if err := l.Sync(lsn4); err != nil {
		t.Fatal(err)
	}
	if rec, err := st.Next(); err != nil || rec != nil {
		t.Fatalf("undecided record leaked: %+v, %v", rec, err)
	}
	// Its abort decides it: the pair disappears.
	lsn5, _ := l.Append(encodeAbort(lsn4))
	if err := l.Sync(lsn5); err != nil {
		t.Fatal(err)
	}
	d.settled.Store(lsn5)
	if rec, err := st.Next(); err != nil || rec != nil {
		t.Fatalf("aborted pair leaked: %+v, %v", rec, err)
	}
	// A published record after the pair flows normally.
	lsn6, _ := l.Append(pt(6))
	if err := l.Sync(lsn6); err != nil {
		t.Fatal(err)
	}
	d.settled.Store(lsn6)
	rec, err = st.Next()
	if err != nil || rec == nil || rec.LSN != lsn6 {
		t.Fatalf("record after aborted pair = %+v, %v, want lsn %d", rec, err, lsn6)
	}
}

// TestCloseSurfacesWALPoisonAndReleasesPages is the Close-ordering
// fix: with the append path poisoned, Close must surface the sticky WAL
// error exactly once, skip the (impossible) final checkpoint, and still
// hand the deferred retired pages back so the in-process tree is not
// leaked.
func TestCloseSurfacesWALPoisonAndReleasesPages(t *testing.T) {
	base := crashBasePoints()
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10}
	inj := &crashInjector{}
	pf := wal.NewMemFile()
	mfs := wal.NewMemFS()
	px, err := buildPagedOn(base, pf, &crashFS{fs: mfs, inj: inj}, o)
	if err != nil {
		t.Fatal(err)
	}
	// Mutations park retired pages in pending until the next durable
	// checkpoint.
	for i := 0; i < 8; i++ {
		if err := px.Insert(Point{X: float64(i), Y: float64(i), ID: uint64(900000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(px.dur.pending) == 0 {
		t.Fatal("no pending retired pages; the release path is not exercised")
	}
	// Poison the WAL: the next append (and everything after) fails.
	inj.arm(0)
	if err := px.Insert(Point{X: 1, Y: 1, ID: 999999}); err == nil {
		t.Fatal("mutation succeeded with a dead WAL")
	}
	if err := px.Insert(Point{X: 2, Y: 2, ID: 999998}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("poisoned index accepted a mutation: %v", err)
	}
	err = px.Close()
	if err == nil || !strings.Contains(err.Error(), "write-ahead log failed") {
		t.Fatalf("Close = %v, want the sticky WAL failure", err)
	}
	if n := strings.Count(err.Error(), "injected crash"); n != 1 {
		t.Fatalf("sticky error surfaced %d times in %q, want once", n, err)
	}
	if len(px.dur.pending) != 0 {
		t.Fatalf("%d retired pages still pending after Close", len(px.dur.pending))
	}
	if err := px.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// The poisoned tail stays frozen: recovery from the surviving bytes
	// still works and holds only acknowledged state.
	rec, err := openPagedOn(pf, mfs, o)
	if err != nil {
		t.Fatalf("recovery after poisoned close: %v", err)
	}
	defer rec.Close()
	got := recoveredSet(t, rec)
	if got[Point{X: 1, Y: 1, ID: 999999}] {
		t.Fatal("unacknowledged mutation recovered")
	}
}
