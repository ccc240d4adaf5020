package pager

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestStore(t *testing.T) (*Store, *MemFile) {
	t.Helper()
	f := NewMemFile()
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

func TestAllocateReadWrite(t *testing.T) {
	s, _ := newTestStore(t)
	payload := []byte("hello pages")
	id, err := s.Allocate(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id == InvalidPage {
		t.Fatal("allocated invalid page")
	}
	got, err := s.Read(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("read back %q, want %q", got[:len(payload)], payload)
	}
	if len(got) != PayloadSize() {
		t.Fatalf("payload length %d, want %d", len(got), PayloadSize())
	}
	if w := s.Stats().Writes; w != 1 {
		t.Errorf("allocating a page with its first image wrote %d pages, want 1", w)
	}
}

// TestAllocateFirstImage: a recycled page takes its first image in the
// allocation's one write, and a reservation (nil image) writes a new
// page as zeros and leaves a recycled one as it was. The page is synced
// before it is freed, so that it is recycled from the file, not from
// the write-behind run.
func TestAllocateFirstImage(t *testing.T) {
	s, _ := newTestStore(t)
	old, err := s.Allocate([]byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(old); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	id, err := s.Allocate([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != old || string(got[:3]) != "new" {
		t.Fatalf("recycled allocation = page %d holding %q, want page %d holding \"new\"", id, got[:3], old)
	}
	if w := s.Stats().Writes; w != 1 {
		t.Errorf("recycled allocation wrote %d pages, want 1", w)
	}

	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if r, err := s.Allocate(nil); err != nil || r != id {
		t.Fatalf("reserving = (%d, %v), want page %d", r, err, id)
	}
	fresh, err := s.Allocate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := s.Stats().Writes; w != 1 {
		t.Errorf("two reservations wrote %d pages, want 1 (the new page only)", w)
	}
	for _, c := range []struct {
		id   PageID
		want string
	}{{id, "new"}, {fresh, "\x00\x00\x00"}} {
		got, err := s.Read(c.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:3]) != c.want {
			t.Errorf("reserved page %d holds %q, want %q", c.id, got[:3], c.want)
		}
	}
}

func TestHeaderPageProtected(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.Write(0, []byte("x")); !errors.Is(err, ErrPageRange) {
		t.Errorf("writing header page: err = %v, want ErrPageRange", err)
	}
	if _, err := s.Read(0, nil); !errors.Is(err, ErrPageRange) {
		t.Errorf("reading header page: err = %v, want ErrPageRange", err)
	}
	if _, err := s.Read(999, nil); !errors.Is(err, ErrPageRange) {
		t.Errorf("reading past EOF: err = %v, want ErrPageRange", err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	s, _ := newTestStore(t)
	if _, err := s.Allocate(make([]byte, PageSize)); err == nil {
		t.Error("oversized first image accepted")
	}
	id, _ := s.Allocate(nil)
	if err := s.Write(id, make([]byte, PageSize)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestFreeListReuse(t *testing.T) {
	s, _ := newTestStore(t)
	a, _ := s.Allocate(nil)
	b, _ := s.Allocate(nil)
	c, _ := s.Allocate(nil)
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse: a then b.
	r1, _ := s.Allocate(nil)
	r2, _ := s.Allocate(nil)
	if r1 != a || r2 != b {
		t.Errorf("reused %d,%d; want %d,%d", r1, r2, a, b)
	}
	r3, _ := s.Allocate(nil)
	if r3 != c+1 {
		t.Errorf("fresh page %d, want %d", r3, c+1)
	}
	st := s.Stats()
	if st.Frees != 2 || st.Allocs != 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	f := NewMemFile()
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	rng := rand.New(rand.NewSource(7))
	contents := map[PageID][]byte{}
	for i := 0; i < 50; i++ {
		id, err := s.Allocate(nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, rng.Intn(PayloadSize()))
		rng.Read(buf)
		if err := s.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		contents[id] = buf
	}
	if err := s.SetUserRoot(ids[3], []byte("tree-meta")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	root, meta := reopened.UserRoot()
	if root != ids[3] {
		t.Errorf("user root %d, want %d", root, ids[3])
	}
	if !bytes.Equal(meta[:9], []byte("tree-meta")) {
		t.Errorf("user meta %q", meta[:9])
	}
	for id, want := range contents {
		got, err := reopened.Read(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("page %d content mismatch", id)
		}
	}
	if reopened.NumPages() != s.NumPages() {
		t.Errorf("NumPages %d, want %d", reopened.NumPages(), s.NumPages())
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	f := NewMemFile()
	s, err := Create(f) // no cache: reads must hit the file
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate(nil)
	if err := s.Write(id, []byte("precious data")); err != nil {
		t.Fatal(err)
	}
	// The page waits in the write-behind run until a sync sends it to
	// the file; then flip a byte in its on-disk image.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	off := int64(id)*PageSize + 5
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id, nil); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted read err = %v, want ErrChecksum", err)
	}
}

func TestHeaderCorruptionRejectedOnOpen(t *testing.T) {
	f := NewMemFile()
	if _, err := Create(f); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 9); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], 9); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); !errors.Is(err, ErrChecksum) {
		t.Errorf("open corrupted header err = %v, want ErrChecksum", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	f := NewMemFile()
	garbage := make([]byte, PageSize)
	for i := range garbage {
		garbage[i] = byte(i)
	}
	if _, err := f.WriteAt(garbage, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Error("opened garbage file without error")
	}
}

// TestFrameStableAcrossWrite pins down the ownership contract: the
// page image Read returns into a fresh buffer (a nil page) is the
// caller's, so a later Write leaves a slice handed out earlier as it
// was, and the next Read sees the write.
func TestFrameStableAcrossWrite(t *testing.T) {
	s, _ := newTestStore(t)
	id, _ := s.Allocate(nil)
	s.Write(id, []byte("immutable"))
	old, _ := s.Read(id, nil)
	if err := s.Write(id, []byte("replaced!")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old[:9], []byte("immutable")) {
		t.Errorf("earlier image mutated by write: %q", old[:9])
	}
	fresh, _ := s.Read(id, nil)
	if !bytes.Equal(fresh[:9], []byte("replaced!")) {
		t.Errorf("read after write = %q", fresh[:9])
	}
}

// TestZeroCapacityPassthrough: a store holds no cache, so every Read
// reaches the file and is counted as one.
func TestZeroCapacityPassthrough(t *testing.T) {
	s, _ := newTestStore(t)
	id, _ := s.Allocate(nil)
	if err := s.Write(id, []byte("cold")); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	for i := 0; i < 3; i++ {
		if _, err := s.Read(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Reads != 3 {
		t.Errorf("passthrough stats = %+v", st)
	}
}

func TestOSFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate(nil)
	if err := s.Write(id, []byte("on disk")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUserRoot(id, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	s2, err := Open(f2)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := s2.UserRoot()
	got, err := s2.Read(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:7], []byte("on disk")) {
		t.Errorf("read back %q", got[:7])
	}
}

func TestMemFileTruncate(t *testing.T) {
	f := NewMemFile()
	f.WriteAt([]byte("0123456789"), 0)
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if len(f.buf) != 4 {
		t.Errorf("len = %d, want 4", len(f.buf))
	}
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Errorf("grown content = %v", buf)
	}
	// A write past the end after a cut zeroes the gap, not the old bytes.
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("x"), 6)
	if _, err := f.ReadAt(buf[:7], 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:7], []byte{'0', '1', 0, 0, 0, 0, 'x'}) {
		t.Errorf("content after a cut and a write past the end = %v", buf[:7])
	}
}

func TestManyPagesStress(t *testing.T) {
	s, _ := newTestStore(t)
	rng := rand.New(rand.NewSource(99))
	live := map[PageID][]byte{}
	var order []PageID
	for i := 0; i < 3000; i++ {
		switch {
		case len(order) == 0 || rng.Intn(3) > 0:
			id, err := s.Allocate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := live[id]; dup {
				t.Fatalf("allocated live page %d twice", id)
			}
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			if err := s.Write(id, buf); err != nil {
				t.Fatal(err)
			}
			live[id] = buf
			order = append(order, id)
		default:
			i := rng.Intn(len(order))
			id := order[i]
			order = append(order[:i], order[i+1:]...)
			delete(live, id)
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id, want := range live {
		got, err := s.Read(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("page %d corrupted", id)
		}
	}
}

// TestConcurrentStoreAccess exercises the Store's concurrency safety:
// parallel readers and writers on disjoint and shared pages (run under
// -race).
func TestConcurrentStoreAccess(t *testing.T) {
	s, _ := newTestStore(t)
	var ids []PageID
	for i := 0; i < 64; i++ {
		id, err := s.Allocate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(g*31+i)%len(ids)]
				switch i % 3 {
				case 0:
					if _, err := s.Read(id, nil); err != nil {
						errs <- err
						return
					}
				case 1:
					if err := s.Write(id, []byte{byte(g), byte(i)}); err != nil {
						errs <- err
						return
					}
				default:
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every page still reads back with a valid checksum.
	for _, id := range ids {
		if _, err := s.Read(id, nil); err != nil {
			t.Fatalf("page %d unreadable after concurrent access: %v", id, err)
		}
	}
}

// TestConcurrentAllocateFree hammers the allocator from many
// goroutines; every returned ID must be unique among live pages.
func TestConcurrentAllocateFree(t *testing.T) {
	s, _ := newTestStore(t)
	var mu sync.Mutex
	live := map[PageID]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []PageID
			for i := 0; i < 100; i++ {
				id, err := s.Allocate(nil)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if live[id] {
					mu.Unlock()
					errs <- fmt.Errorf("page %d allocated twice", id)
					return
				}
				live[id] = true
				mu.Unlock()
				mine = append(mine, id)
				if len(mine) > 10 {
					victim := mine[0]
					mine = mine[1:]
					mu.Lock()
					delete(live, victim)
					mu.Unlock()
					if err := s.Free(victim); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// runImage is the test payload of page id at version v: the page's own
// ID, so a read that lands on a neighbour is caught, then v.
func runImage(id PageID, v byte) []byte {
	b := make([]byte, 5)
	putBE32(b, uint32(id))
	b[4] = v
	return b
}

func checkImage(t *testing.T, s *Store, id PageID, v byte) {
	t.Helper()
	got, err := s.Read(id, nil)
	if err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	if want := runImage(id, v); !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("page %d reads %v, want %v", id, got[:len(want)], want)
	}
}

// TestWriteBehindReadsPendingPages reads every appended page back while
// it still waits in the run, before, at and past the run's full size:
// every read goes to the file.
func TestWriteBehindReadsPendingPages(t *testing.T) {
	s, _ := newTestStore(t)
	var ids []PageID
	for i := 0; i < 2*runPages+3; i++ {
		id, err := s.Allocate(runImage(PageID(i+1), 1))
		if err != nil {
			t.Fatal(err)
		}
		if id != PageID(i+1) {
			t.Fatalf("append %d got page %d", i, id)
		}
		ids = append(ids, id)
		// Every third page is read at once, the rest in a sweep below,
		// so reads land at the run's start, middle and end.
		if i%3 == 0 {
			if !s.pending(id) {
				t.Fatalf("page %d is not in the run after its allocation", id)
			}
			checkImage(t, s, id, 1)
		}
	}
	for _, id := range ids {
		checkImage(t, s, id, 1)
	}
	if st := s.Stats(); st.Writes != uint64(len(ids)) || st.Reads != uint64(len(ids)+len(ids)/3+1) {
		t.Fatalf("stats %+v: want %d writes, one per page, and every read a file read", st, len(ids))
	}
}

// TestWriteBehindWritePendingPage: a Write to a page in the run
// replaces its image there, so the run, still pending, carries the new
// image to the file in its one write, no page is counted twice, and its
// neighbours keep their images; a read then sends the run out as usual.
func TestWriteBehindWritePendingPage(t *testing.T) {
	mf := NewMemFile()
	f := &countingFile{MemFile: mf}
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	before := f.writes.Load()
	if err := s.Write(2, runImage(2, 2)); err != nil {
		t.Fatal(err)
	}
	if !s.pending(1) || !s.pending(2) || !s.pending(3) {
		t.Fatal("a Write to a pending page sent the run out")
	}
	if got := f.writes.Load() - before; got != 0 {
		t.Fatalf("a Write to a pending page made %d WriteAt calls, want 0", got)
	}
	if w := s.Stats().Writes; w != 3 {
		t.Fatalf("%d page writes counted, want 3: one per page", w)
	}
	for i, v := range []byte{1, 2, 1} {
		checkImage(t, s, PageID(i+1), v)
	}
	if got := f.writes.Load() - before; got != 1 {
		t.Fatalf("reading the run's pages made %d WriteAt calls, want 1", got)
	}
	if err := s.Write(2, runImage(2, 3)); err != nil {
		t.Fatal(err)
	}
	checkImage(t, s, 2, 3)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(mf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []byte{1, 3, 1} {
		checkImage(t, re, PageID(i+1), v)
	}
}

// TestWriteBehindFreePendingPage: a page freed while it waits in the
// run comes back from the free list with the new image written over the
// run's, or, reserved, with the run's image.
func TestWriteBehindFreePendingPage(t *testing.T) {
	s, _ := newTestStore(t)
	a, _ := s.Allocate(runImage(1, 1))
	b, _ := s.Allocate(runImage(2, 1))
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate(runImage(1, 2))
	if err != nil || id != a {
		t.Fatalf("re-allocation = (%d, %v), want page %d", id, err, a)
	}
	checkImage(t, s, a, 2)
	checkImage(t, s, b, 1)

	c, _ := s.Allocate(runImage(3, 1))
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Allocate(nil); err != nil || r != c {
		t.Fatalf("reserving = (%d, %v), want page %d", r, err, c)
	}
	if !s.pending(c) {
		t.Fatal("reserving a freed pending page wrote the run")
	}
	checkImage(t, s, c, 1)
}

// TestWriteBehindSyncMatchesPageAtATime: after Sync the file holds the
// bytes a store writing one page at a time leaves, whatever the run's
// boundaries.
func TestWriteBehindSyncMatchesPageAtATime(t *testing.T) {
	const n = runPages + runPages/2
	runs, rf := newTestStore(t)
	single, sf := newTestStore(t)
	for i := 1; i <= n; i++ {
		// Lengths that rise and fall, so a page shorter than the one
		// before it at its place in the buffer must not keep its tail.
		img := bytes.Repeat(runImage(PageID(i), byte(i)), 1+(i*37)%800)
		if _, err := runs.Allocate(img); err != nil {
			t.Fatal(err)
		}
		id, err := single.Allocate(img)
		if err != nil {
			t.Fatal(err)
		}
		// A read of the page sends it out on its own.
		if _, err := single.Read(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := runs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := single.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(rf.buf) != (n+1)*PageSize || !bytes.Equal(rf.buf, sf.buf) {
		t.Fatalf("a synced store written in runs differs from one written page by page (%d and %d bytes)", len(rf.buf), len(sf.buf))
	}
	if runs.run != nil {
		t.Fatal("Sync kept the run's buffer")
	}
}

// countingFile counts WriteAt calls.
type countingFile struct {
	*MemFile
	writes atomic.Int64
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes.Add(1)
	return f.MemFile.WriteAt(p, off)
}

// TestWriteBehindWriteAtCalls: a k-page append reaches the file in
// ⌈k/256⌉ writes, plus the header's at Create and at Sync, and the run
// never holds more than 256 pages.
func TestWriteBehindWriteAtCalls(t *testing.T) {
	for _, k := range []int{1, 2, runPages - 1, runPages, runPages + 1, 3*runPages + 17} {
		f := &countingFile{MemFile: NewMemFile()}
		s, err := Create(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= k; i++ {
			if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
				t.Fatal(err)
			}
			if len(s.run) > runPages*PageSize {
				t.Fatalf("the run holds %d pages", len(s.run)/PageSize)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want := (k+runPages-1)/runPages + 2
		if got := f.writes.Load(); got != int64(want) {
			t.Errorf("%d-page append: %d WriteAt calls, want %d", k, got, want)
		}
		if w := s.Stats().Writes; w != uint64(k) {
			t.Errorf("%d-page append counted %d page writes", k, w)
		}
	}
}

// TestWriteBehindConcurrentReaders reads published pages, rewrites some
// and fsyncs while one appender fills runs and sends them out (run
// under -race): every read sees the page's own ID and a valid checksum.
func TestWriteBehindConcurrentReaders(t *testing.T) {
	s, _ := newTestStore(t)
	const total = 3*runPages + 40
	done := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				n := s.NumPages()
				if n < 2 {
					continue
				}
				// Lean on the newest pages: they are the run's.
				id := PageID(n - 1 - rng.Intn(min(n-1, 40)))
				if g == 2 && rng.Intn(4) == 0 {
					if err := s.Write(id, runImage(id, 2)); err != nil {
						errs <- err
						return
					}
					continue
				}
				got, err := s.Read(id, nil)
				if err != nil {
					errs <- err
					return
				}
				if be32(got) != uint32(id) {
					errs <- fmt.Errorf("page %d reads page %d's image", id, be32(got))
					return
				}
			}
		}(g)
	}
	for i := 1; i <= total; i++ {
		if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
			t.Fatal(err)
		}
		if i%150 == 0 {
			if err := s.SyncData(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id := PageID(1); id <= total; id++ {
		got, err := s.Read(id, nil)
		if err != nil {
			t.Fatalf("page %d after the race: %v", id, err)
		}
		if be32(got) != uint32(id) {
			t.Fatalf("page %d after the race reads page %d's image", id, be32(got))
		}
	}
}

// hintFile records the writeback hints a Store gives it, and answers
// each with err. The Store gives them on its writer goroutine.
type hintFile struct {
	*MemFile
	err   error
	mu    sync.Mutex
	hints [][2]int64 // {offset, length}
}

func (f *hintFile) StartWriteback(off, n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hints = append(f.hints, [2]int64{off, n})
	return f.err
}

// given returns the hints given so far.
func (f *hintFile) given() [][2]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.hints)
}

// TestWriteBehindStartsWriteback: a full run sent out by the next append
// starts the writeback of exactly its bytes once it has landed, and no
// other write does — not the partial run an fsync sends out, not a full
// run a commit's Flush sends out, not a write-through. A hint that
// fails fails nothing, every fsync is still issued, and the file holds
// the same bytes. A MemFile offers no hint; an *os.File on Linux does.
func TestWriteBehindStartsWriteback(t *testing.T) {
	var images [][]byte
	for _, hintErr := range []error{nil, errors.New("sync_file_range: function not implemented")} {
		f := &hintFile{MemFile: NewMemFile(), err: hintErr}
		s, err := Create(f)
		if err != nil {
			t.Fatal(err)
		}
		const appends = 600
		for i := 1; i <= appends; i++ {
			if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SyncData(); err != nil {
			t.Fatal(err)
		}
		run := int64(runPages * PageSize)
		want := [][2]int64{{PageSize, run}, {PageSize + run, run}}
		if got := f.given(); !slices.Equal(got, want) {
			t.Fatalf("%d appends gave hints %v once landed, want %v", appends, got, want)
		}
		// A commit's pages, a full run of them, sent out by its Flush.
		for i := appends + 1; i <= appends+runPages; i++ {
			if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// Write-throughs: a rewrite, and a freed page's reuse.
		if err := s.Write(3, runImage(3, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(5); err != nil {
			t.Fatal(err)
		}
		if id, err := s.Allocate(runImage(5, 2)); err != nil || id != 5 {
			t.Fatalf("reuse = (%d, %v), want page 5", id, err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(7); err != nil {
			t.Fatal(err)
		}
		if got := f.given(); !slices.Equal(got, want) {
			t.Fatalf("hints %v after the fsyncs, Flush and write-throughs, want only %v", got, want)
		}
		st := s.Stats()
		if st.Syncs != 3 || st.Writes != appends+runPages+2 {
			t.Fatalf("stats %+v: want 3 syncs and %d page writes", st, appends+runPages+2)
		}
		re, err := Open(f.MemFile)
		if err != nil {
			t.Fatal(err)
		}
		for id := PageID(1); id <= appends+runPages; id++ {
			v := byte(1)
			if id == 3 || id == 5 {
				v = 2
			}
			checkImage(t, re, id, v)
		}
		images = append(images, f.MemFile.buf)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("a failing hint changed the file")
	}
	if writebackOf(NewMemFile()) != nil {
		t.Fatal("a MemFile offers a writeback hint")
	}

	// The same appends through an *os.File reach the same bytes, and on
	// Linux the hint is the kernel's.
	path := filepath.Join(t.TempDir(), "pages.db")
	of, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	s, err := Create(of)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" && s.writeback == nil {
		t.Fatal("an *os.File on linux/amd64 offers no writeback hint")
	}
	if s.writeback != nil {
		if err := s.writeback(0, PageSize); err != nil {
			t.Logf("the kernel refuses the hint here (%v); it is ignored", err)
		}
	}
	mf, err := Create(NewMemFile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2*runPages+3; i++ {
		for _, st := range []*Store{s, mf} {
			if _, err := st.Allocate(runImage(PageID(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range []*Store{s, mf} {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Syncs != 1 || st.SyncWait <= 0 {
		t.Fatalf("stats %+v: want one sync, and a wait in it", st)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, mf.file.(*MemFile).buf) {
		t.Fatal("a store on an *os.File wrote other bytes than one on a MemFile")
	}
}

// gateFile holds every whole-run write until open is closed, and
// counts the run writes that landed.
type gateFile struct {
	*MemFile
	open   chan struct{}
	landed atomic.Int64
}

func (f *gateFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == runPages*PageSize {
		<-f.open
		defer f.landed.Add(1)
	}
	return f.MemFile.WriteAt(p, off)
}

// TestWriteBehindReadsInFlightPages reads the pages of a full run while
// its write is held on the writer goroutine, from several readers at
// once (run under -race), beside a read of the partial run after it:
// every read waits for the write to land and returns the page's bytes.
func TestWriteBehindReadsInFlightPages(t *testing.T) {
	f := &gateFile{MemFile: NewMemFile(), open: make(chan struct{})}
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	const pages = runPages + 5
	for i := 1; i <= pages; i++ {
		if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for id := PageID(1); id <= pages; id++ {
		if !s.pending(id) {
			t.Fatalf("page %d of the run in flight or after it is not pending", id)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := PageID(1 + (g*53+i*7)%pages)
				got, err := s.Read(id, nil)
				if err == nil && be32(got) != uint32(id) {
					err = fmt.Errorf("page %d reads page %d's image", id, be32(got))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(f.open)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := f.landed.Load(); n != 1 {
		t.Fatalf("%d run writes landed, want 1", n)
	}
}

// TestWriteBehindCloseWaitsForWriter: Close returns only once the run
// in flight has landed, so the owner can close the file after it.
func TestWriteBehindCloseWaitsForWriter(t *testing.T) {
	f := &gateFile{MemFile: NewMemFile(), open: make(chan struct{})}
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= runPages+1; i++ {
		if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan int64)
	go func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
		closed <- f.landed.Load()
	}()
	close(f.open)
	if n := <-closed; n != 1 {
		t.Fatalf("Close returned with %d run writes landed, want 1", n)
	}
}

// errInjected is the failure failFile injects.
var errInjected = errors.New("injected write failure")

// failFile fails every whole-run write while fail is set.
type failFile struct {
	*MemFile
	fail atomic.Bool
}

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fail.Load() && len(p) == runPages*PageSize {
		return 0, errInjected
	}
	return f.MemFile.WriteAt(p, off)
}

// TestWriteBehindWriterError: a full run's failed write is returned by
// the next append that must wait for it, which allocates nothing, and
// the run stays for the next attempt: once the file takes writes again,
// an fsync lands it, and every page reads back its own image.
func TestWriteBehindWriterError(t *testing.T) {
	f := &failFile{MemFile: NewMemFile()}
	s, err := Create(f)
	if err != nil {
		t.Fatal(err)
	}
	f.fail.Store(true)
	for i := 1; i <= 2*runPages; i++ {
		if _, err := s.Allocate(runImage(PageID(i), 1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := s.Allocate(runImage(2*runPages+1, 1)); !errors.Is(err, errInjected) {
		t.Fatalf("the append after a failed run's write: %v, want the write's error", err)
	}
	if n := s.NumPages(); n != 2*runPages+1 {
		t.Fatalf("%d pages after the failed append, want %d", n, 2*runPages+1)
	}
	if err := s.SyncData(); !errors.Is(err, errInjected) {
		t.Fatalf("an fsync while the file still fails: %v, want the write's error", err)
	}
	f.fail.Store(false)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(f.MemFile)
	if err != nil {
		t.Fatal(err)
	}
	for id := PageID(1); id <= 2*runPages; id++ {
		checkImage(t, re, id, 1)
	}
}
