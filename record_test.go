package nwcq

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nwcq/internal/wal"
)

// FuzzDecodeRecord hands decodeRecord a fuzzed WAL payload. It must
// return an error or a record that encodes back to its input, and it
// must never panic. Seeds are in testdata/fuzz/FuzzDecodeRecord: every
// op (apply wrapping an insert and a delete), an empty insert, a
// truncated apply wrapper, a count past the bytes, aborts of 8 and 10
// bytes, an apply wrapping an apply, an unknown op and an empty payload.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err != nil {
			return
		}
		if enc := r.encode(); !bytes.Equal(enc, data) {
			t.Fatalf("record %+v re-encodes as %x, read from %x", r, enc, data)
		}
	})
}

// TestOpenPagedReplaysEveryOp reopens a page file and log written by the
// build before the mutation paths shared one apply step, left with
// unreplayed insert, delete, abort, apply and reset records (a crash
// before any checkpoint). Recovery must land on the points, answers and
// positions that build recovered to, recorded in want.json.
func TestOpenPagedReplaysEveryOp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"idx.nwcq", "idx.nwcq.wal/0000000000000001.seg"} {
		b, err := os.ReadFile(filepath.Join("testdata", "oplog", name))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wfs, err := wal.NewDirFS(filepath.Join(dir, "idx.nwcq.wal"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wfs, wal.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[byte]int{}
	for _, lr := range log.Records(0) {
		if _, err := decodeRecord(lr.Data); err != nil {
			t.Fatalf("lsn %d: %v", lr.LSN, err)
		}
		ops[lr.Data[0]]++
	}
	log.Close()
	for _, op := range []byte{recInsert, recDelete, recAbort, recApply, recReset} {
		if ops[op] == 0 {
			t.Fatalf("the log holds no op %d record (%v): the fixture tests nothing", op, ops)
		}
	}

	px, err := OpenPaged(filepath.Join(dir, "idx.nwcq"))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "oplog", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := oplogState(t, px); !bytes.Equal(got, want) {
		t.Fatalf("reopened state differs from want.json:\n%s", got)
	}
}

// oplogState renders what a reopened index answers: its points in ID
// order, its replica position, the records it replayed, its log
// positions, and one NWC and one kNWC answer without their work
// counters.
func oplogState(t *testing.T, px *PagedIndex) []byte {
	t.Helper()
	pts, err := px.cur.Load().tree.All()
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(pts, func(a, b Point) int { return cmp.Compare(a.ID, b.ID) })
	q := Query{X: 20, Y: 20, Length: 15, Width: 15, N: 3}
	r, err := px.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	k, err := px.KNWC(KQuery{Query: q, K: 3, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Stats, k.Stats = Stats{}, Stats{}
	b, err := json.MarshalIndent(map[string]any{
		"points": pts, "replica": px.ReplicaLSN(), "replayed": px.dur.replayed,
		"lsns": px.ReplicationLSNs(), "nwc": r, "knwc": k,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestFollowerResetReplays crashes a follower after a snapshot
// re-bootstrap — a reset, then snapshot chunks — before any checkpoint.
// Recovery must replay the reset: the reopened follower holds exactly
// the snapshot's points at the snapshot's position, none of the state
// the reset discarded.
func TestFollowerResetReplays(t *testing.T) {
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10}
	stale := crashBasePoints()
	fm := newMemPaged()
	follower := fm.build(t, stale[:40], o)
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := follower.ApplyReplicated(lsn, encodeMutation(recInsert, stale[40+lsn:41+lsn])); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.ResetForSnapshot(); err != nil {
		t.Fatal(err)
	}
	snap := make([]Point, 25)
	for i := range snap {
		snap[i] = Point{X: float64(i*37%500) + 0.5, Y: float64(i*91%500) + 0.5, ID: uint64(9000 + i)}
	}
	const snapLSN = 77
	if err := follower.ApplySnapshotChunk(snap[:10], 0); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplySnapshotChunk(snap[10:], snapLSN); err != nil {
		t.Fatal(err)
	}

	follower = fm.open(t, o) // abandoned: no Close, no checkpoint
	defer follower.Close()
	if follower.dur.replayed == 0 {
		t.Fatal("nothing replayed: the reset never reached the log's unreplayed tail")
	}
	if got := follower.ReplicaLSN(); got != snapLSN {
		t.Fatalf("replica LSN after reopen = %d, want the snapshot's %d", got, snapLSN)
	}
	want := make(map[Point]bool, len(snap))
	for _, p := range snap {
		want[p] = true
	}
	if got := recoveredSet(t, follower); !setsEqual(got, want) {
		t.Fatalf("reopened follower holds %d points, want the snapshot's %d", len(got), len(want))
	}
}

// TestFollowerCheckpointKeepsPosition checkpoints on every record, so
// each leader record's own commit writes the checkpoint that covers it.
// That checkpoint must carry the record's leader LSN: replay starts past
// it and cannot recover the position, and a follower reopened one behind
// would apply the record twice.
func TestFollowerCheckpointKeepsPosition(t *testing.T) {
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10, walCheckpointBytes: 1}
	fm := newMemPaged()
	follower := fm.build(t, nil, o)
	pts := crashBasePoints()[:5]
	for i := range pts {
		if err := follower.ApplyReplicated(uint64(i+1), encodeMutation(recInsert, pts[i:i+1])); err != nil {
			t.Fatal(err)
		}
	}
	follower = fm.open(t, o) // abandoned: no Close
	defer follower.Close()
	if got := follower.ReplicaLSN(); got != uint64(len(pts)) {
		t.Fatalf("replica LSN after reopen = %d, want %d", got, len(pts))
	}
	if got := follower.Len(); got != len(pts) {
		t.Fatalf("%d points after reopen, want %d", got, len(pts))
	}
}

func crashBasePoints() []Point {
	pts := make([]Point, 0, 80)
	for i := 0; i < 80; i++ {
		// Deterministic scatter over [0,1000)²; coprime strides give
		// decent spread without a second RNG.
		pts = append(pts, Point{
			X:  float64((i * 137) % 1000),
			Y:  float64((i * 313) % 1000),
			ID: uint64(i + 1),
		})
	}
	return pts
}

func recoveredSet(t *testing.T, px *PagedIndex) map[Point]bool {
	t.Helper()
	gpts, err := px.cur.Load().tree.All()
	if err != nil {
		t.Fatalf("All() on recovered tree: %v", err)
	}
	m := make(map[Point]bool, len(gpts))
	for _, p := range gpts {
		m[Point{X: p.X, Y: p.Y, ID: p.ID}] = true
	}
	return m
}

func setsEqual(a, b map[Point]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}
