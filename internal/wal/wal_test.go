package wal

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func appendAll(t *testing.T, l *Log, payloads ...string) []uint64 {
	t.Helper()
	lsns := make([]uint64, len(payloads))
	for i, p := range payloads {
		lsn, err := l.Append([]byte(p))
		if err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
		lsns[i] = lsn
	}
	return lsns
}

func wantRecords(t *testing.T, got []Record, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if string(r.Data) != want[i] {
			t.Errorf("record %d = %q, want %q", i, r.Data, want[i])
		}
		if i > 0 && r.LSN != got[i-1].LSN+1 {
			t.Errorf("record %d LSN %d does not follow %d", i, r.LSN, got[i-1].LSN)
		}
	}
}

func TestAppendSyncReopen(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lsns := appendAll(t, l, "alpha", "beta", "gamma")
	if lsns[0] != 1 || lsns[2] != 3 {
		t.Fatalf("LSNs = %v, want 1..3", lsns)
	}
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN before sync = %d, want 0", got)
	}
	if err := l.Sync(0); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 3 {
		t.Fatalf("DurableLSN after sync = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	r, err := Open(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantRecords(t, r.Records(0), "alpha", "beta", "gamma")
	wantRecords(t, r.Records(2), "gamma")
	if got := r.AppendedLSN(); got != 3 {
		t.Fatalf("AppendedLSN after reopen = %d, want 3", got)
	}
	if lsn, err := r.Append([]byte("delta")); err != nil || lsn != 4 {
		t.Fatalf("Append after reopen = (%d, %v), want (4, nil)", lsn, err)
	}
}

func TestRotationAndRecycle(t *testing.T) {
	fs := NewMemFS()
	// Tiny segments: every record rotates once the previous one landed.
	l, err := Create(fs, Options{SegmentBytes: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 10; i++ {
		last, err = l.Append([]byte(fmt.Sprintf("record-%02d-%032d", i, i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("expected rotations with 64-byte segments")
	}
	names, _ := fs.List()
	if len(names) < 2 {
		t.Fatalf("expected multiple segments, got %v", names)
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpointed(last); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Recycled == 0 {
		t.Fatal("checkpoint recycled no segments")
	}
	names, _ = fs.List()
	if len(names) != 1 {
		t.Fatalf("after full checkpoint want 1 active segment, got %v", names)
	}
	if got := l.SizeSinceCheckpoint(); got != 0 {
		t.Fatalf("SizeSinceCheckpoint after checkpoint = %d, want 0", got)
	}
	// The log keeps appending on the fresh active segment.
	lsn, err := l.Append([]byte("after-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("post-checkpoint LSN = %d, want %d", lsn, last+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, Options{SegmentBytes: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantRecords(t, r.Records(last), "after-checkpoint")
}

func TestTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "keep-1", "keep-2", "torn")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame mid-payload, as a crash during the write would.
	f, err := fs.Open(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if err := f.Truncate(size - 2); err != nil {
		t.Fatal(err)
	}

	r, err := Open(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, r.Records(0), "keep-1", "keep-2")
	// Appends resume on the clean boundary, reusing the torn record's LSN.
	lsn, err := r.Append([]byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("post-tear LSN = %d, want 3", lsn)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	wantRecords(t, r2.Records(0), "keep-1", "keep-2", "replacement")
}

func TestCorruptionDropsSuffix(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{SegmentBytes: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d-%032d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first segment's first record's payload: its
	// CRC fails, and every record after it — including whole later
	// segments — must be discarded, because replay cannot skip a hole.
	f, err := fs.Open(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, segHeaderLen+frameHeader+3); err != nil {
		t.Fatal(err)
	}

	r, err := Open(fs, Options{SegmentBytes: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recs := r.Records(0); len(recs) != 0 {
		t.Fatalf("got %d records after corrupting the first, want 0", len(recs))
	}
	names, _ := fs.List()
	if len(names) != 1 {
		t.Fatalf("post-corruption segments = %v, want only the truncated head", names)
	}
}

func TestSyncIntervalTimer(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{SyncEvery: 5 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append([]byte("background"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.DurableLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("DurableLSN = %d, background sync never covered %d", l.DurableLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// failAfterFile errors every write once the countdown reaches zero.
type failAfterFile struct {
	File
	remaining int
}

func (f *failAfterFile) WriteAt(p []byte, off int64) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("injected write failure")
	}
	f.remaining--
	return f.File.WriteAt(p, off)
}

func TestAppendFailureIsSticky(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lsn := appendAll(t, l, "good")[0]
	// Swap the active segment's file for one that fails the next write.
	l.mu.Lock()
	active := l.segs[len(l.segs)-1]
	active.file = &failAfterFile{File: active.file, remaining: 0}
	l.mu.Unlock()
	if _, err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("Append over failing file succeeded")
	}
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("Append after failure succeeded; failure must be sticky")
	}
	// Syncing the surviving prefix still works... the records up to the
	// failure stay recoverable.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantRecords(t, r.Records(0), "good")
	if got := r.AppendedLSN(); got != lsn {
		t.Fatalf("AppendedLSN after recovery = %d, want %d", got, lsn)
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers = 8
	lsns := make([]uint64, writers)
	for i := range lsns {
		lsn, err := l.Append([]byte(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	done := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(lsn uint64) { done <- l.Sync(lsn) }(lsns[i])
	}
	for i := 0; i < writers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableLSN(); got != lsns[writers-1] {
		t.Fatalf("DurableLSN = %d, want %d", got, lsns[writers-1])
	}
	// All eight waiters must not have issued eight fsyncs: the leader's
	// fsync covers everyone queued behind it. The exact count is timing
	// dependent, but it can never exceed the number of waiters and in
	// practice collapses to far fewer; the hard invariant is ≥1.
	if st := l.Stats(); st.Syncs == 0 || st.Syncs > writers {
		t.Fatalf("Syncs = %d, want 1..%d", st.Syncs, writers)
	}
}

func TestEmptyAndOversizeRecordsRejected(t *testing.T) {
	l, err := Create(NewMemFS(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := l.Append(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// FuzzWALSegment runs hostile bytes through Open as a log's only
// segment. Open must return an error or the segment's intact records,
// consecutive from its header's first LSN; and once that open has cut
// any torn tail, a second Open must return the same records and cut
// nothing. The seeds are an intact three-record segment and its prefixes
// ending inside each frame, the state the model test's crash sweep
// leaves when a crash tears an append in half.
func FuzzWALSegment(f *testing.F) {
	fs := NewMemFS()
	l, err := Create(fs, Options{}, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"a", "bb", "a payload long enough to tear in the middle"} {
		if _, err := l.Append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := fs.Open(segName(1))
	if err != nil {
		f.Fatal(err)
	}
	size, _ := seg.Size()
	intact := make([]byte, size)
	if _, err := seg.ReadAt(intact, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(intact)
	for _, cut := range []int{segHeaderLen + frameHeader/2, segHeaderLen + frameHeader + 1 + frameHeader/2, int(size) - 20} {
		f.Add(intact[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewMemFS()
		seg, _ := fs.Create(segName(1))
		seg.WriteAt(data, 0)
		l, err := Open(fs, Options{}, 1)
		if err != nil {
			return
		}
		first := l.Records(0)
		for i, r := range first {
			if i > 0 && r.LSN != first[i-1].LSN+1 {
				t.Fatalf("record %d at LSN %d follows LSN %d", i, r.LSN, first[i-1].LSN)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		sizes := segmentSizes(t, fs)
		l, err = Open(fs, Options{}, 1)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer l.Close()
		second := l.Records(0)
		if len(second) != len(first) {
			t.Fatalf("second open read %d records, the first %d", len(second), len(first))
		}
		for i := range first {
			if second[i].LSN != first[i].LSN || string(second[i].Data) != string(first[i].Data) {
				t.Fatalf("record %d differs across opens: LSN %d %q, then LSN %d %q", i, first[i].LSN, first[i].Data, second[i].LSN, second[i].Data)
			}
		}
		if again := segmentSizes(t, fs); fmt.Sprint(again) != fmt.Sprint(sizes) {
			t.Fatalf("second open changed the segments: %v, then %v", sizes, again)
		}
	})
}

func segmentSizes(t *testing.T, fs *MemFS) map[string]int64 {
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, name := range names {
		f, _ := fs.Open(name)
		sizes[name], _ = f.Size()
	}
	return sizes
}
