package wal

import (
	"errors"
	"fmt"
	"testing"
)

func appendSynced(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	lsn, err := l.Append([]byte(payload))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatalf("sync: %v", err)
	}
	return lsn
}

func TestReaderCatchUpAndLiveTail(t *testing.T) {
	fs := NewMemFS()
	// Tiny segments so catch-up crosses several sealed files.
	l, err := Create(fs, Options{SegmentBytes: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 40
	for i := 1; i <= n; i++ {
		appendSynced(t, l, fmt.Sprintf("record-%03d", i))
	}
	r, err := l.NewReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 1; i <= n; i++ {
		rec, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
		}
		if rec.LSN != uint64(i) || string(rec.Data) != fmt.Sprintf("record-%03d", i) {
			t.Fatalf("record %d: got lsn %d data %q", i, rec.LSN, rec.Data)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("drained reader: ok=%v err=%v", ok, err)
	}
	// Live tail: new appends become visible once durable.
	lsn := appendSynced(t, l, "tail")
	rec, ok, err := r.Next()
	if err != nil || !ok || rec.LSN != lsn || string(rec.Data) != "tail" {
		t.Fatalf("live tail: rec=%+v ok=%v err=%v", rec, ok, err)
	}
}

// TestCheckpointRetainsLeasedSegments is the regression test for the
// recycling bug: a checkpoint that lands mid-catch-up must not delete
// segments the reader has yet to stream. Before the retention fix,
// Checkpointed removed every covered segment unconditionally and the
// reader lost history.
func TestCheckpointRetainsLeasedSegments(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{SegmentBytes: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 50
	for i := 1; i <= n; i++ {
		appendSynced(t, l, fmt.Sprintf("record-%03d", i))
	}
	r, err := l.NewReader(1)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few records, then checkpoint everything appended so far
	// while the reader is mid-catch-up.
	for i := 1; i <= 5; i++ {
		if _, ok, err := r.Next(); !ok || err != nil {
			t.Fatalf("pre-checkpoint next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := l.Checkpointed(l.AppendedLSN()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := l.OldestLSN(); got != 6 {
		t.Fatalf("after checkpoint under lease: oldest lsn = %d, want 6 (reader position)", got)
	}
	// The reader must still see every committed record.
	for i := 6; i <= n; i++ {
		rec, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("post-checkpoint next %d: ok=%v err=%v", i, ok, err)
		}
		if rec.LSN != uint64(i) || string(rec.Data) != fmt.Sprintf("record-%03d", i) {
			t.Fatalf("post-checkpoint record %d: lsn %d data %q", i, rec.LSN, rec.Data)
		}
	}
	// Releasing the lease lets the next checkpoint reclaim everything.
	r.Close()
	before := l.Stats().Recycled
	if err := l.Checkpointed(l.AppendedLSN()); err != nil {
		t.Fatalf("post-release checkpoint: %v", err)
	}
	if after := l.Stats().Recycled; after <= before {
		t.Fatalf("post-release checkpoint recycled nothing (%d -> %d)", before, after)
	}
	if got := l.OldestLSN(); got <= uint64(n) {
		t.Fatalf("after release: oldest lsn = %d, want > %d", got, n)
	}
}

func TestNewReaderCompacted(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{SegmentBytes: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		appendSynced(t, l, fmt.Sprintf("record-%02d", i))
	}
	if err := l.Checkpointed(l.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.NewReader(1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("NewReader(1) after full checkpoint: err=%v, want ErrCompacted", err)
	}
	// Starting at the current frontier is fine even though nothing is
	// there yet.
	r, err := l.NewReader(l.AppendedLSN() + 1)
	if err != nil {
		t.Fatalf("NewReader at frontier: %v", err)
	}
	defer r.Close()
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("frontier reader: ok=%v err=%v", ok, err)
	}
	lsn := appendSynced(t, l, "fresh")
	rec, ok, err := r.Next()
	if err != nil || !ok || rec.LSN != lsn {
		t.Fatalf("frontier reader after append: rec=%+v ok=%v err=%v", rec, ok, err)
	}
}

func TestReaderDurableBound(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{}, 1) // large segment: no rotation syncs
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r, err := l.NewReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := l.Append([]byte("undurable")); err != nil {
		t.Fatal(err)
	}
	// Appended but not fsynced: the reader must not ship it.
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("undurable record leaked: ok=%v err=%v", ok, err)
	}
	if err := l.Sync(0); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := r.Next()
	if err != nil || !ok || rec.LSN != 1 || string(rec.Data) != "undurable" {
		t.Fatalf("after sync: rec=%+v ok=%v err=%v", rec, ok, err)
	}
}

func TestLeaseAdvancePermitsPartialRecycling(t *testing.T) {
	fs := NewMemFS()
	l, err := Create(fs, Options{SegmentBytes: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 30; i++ {
		appendSynced(t, l, fmt.Sprintf("record-%03d", i))
	}
	lease, err := l.RetainFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if err := l.Checkpointed(l.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	if got := l.OldestLSN(); got != 1 {
		t.Fatalf("lease at 1 ignored: oldest = %d", got)
	}
	lease.Advance(20)
	if err := l.Checkpointed(l.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	got := l.OldestLSN()
	if got > 20 {
		t.Fatalf("recycled past the lease floor: oldest = %d > 20", got)
	}
	if got == 1 {
		t.Fatalf("advanced lease retained everything: oldest still 1")
	}
	// Backward advance is a no-op.
	lease.Advance(5)
	if err := l.Checkpointed(l.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	if after := l.OldestLSN(); after < got {
		t.Fatalf("backward lease advance re-pinned history: oldest %d -> %d", got, after)
	}
}
