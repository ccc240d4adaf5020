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
	"time"
)

func newTestStore(t *testing.T, cache int) (*Store, *MemFile) {
	t.Helper()
	f := NewMemFile()
	s, err := Create(f, Options{CacheSize: cache})
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

func TestAllocateReadWrite(t *testing.T) {
	s, _ := newTestStore(t, 0)
	payload := []byte("hello pages")
	id, err := s.Allocate(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	if id == InvalidPage {
		t.Fatal("allocated invalid page")
	}
	got, err := s.Read(id)
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
	s, _ := newTestStore(t, 0)
	old, err := s.Allocate([]byte("old"), false)
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
	id, err := s.Allocate([]byte("new"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
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
	if r, err := s.Allocate(nil, false); err != nil || r != id {
		t.Fatalf("reserving = (%d, %v), want page %d", r, err, id)
	}
	fresh, err := s.Allocate(nil, false)
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
		got, err := s.Read(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:3]) != c.want {
			t.Errorf("reserved page %d holds %q, want %q", c.id, got[:3], c.want)
		}
	}
}

func TestHeaderPageProtected(t *testing.T) {
	s, _ := newTestStore(t, 0)
	if err := s.Write(0, []byte("x")); !errors.Is(err, ErrPageRange) {
		t.Errorf("writing header page: err = %v, want ErrPageRange", err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrPageRange) {
		t.Errorf("reading header page: err = %v, want ErrPageRange", err)
	}
	if _, err := s.Read(999); !errors.Is(err, ErrPageRange) {
		t.Errorf("reading past EOF: err = %v, want ErrPageRange", err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	s, _ := newTestStore(t, 0)
	if _, err := s.Allocate(make([]byte, PageSize), false); err == nil {
		t.Error("oversized first image accepted")
	}
	id, _ := s.Allocate(nil, false)
	if err := s.Write(id, make([]byte, PageSize)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestFreeListReuse(t *testing.T) {
	s, _ := newTestStore(t, 0)
	a, _ := s.Allocate(nil, false)
	b, _ := s.Allocate(nil, false)
	c, _ := s.Allocate(nil, false)
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse: a then b.
	r1, _ := s.Allocate(nil, false)
	r2, _ := s.Allocate(nil, false)
	if r1 != a || r2 != b {
		t.Errorf("reused %d,%d; want %d,%d", r1, r2, a, b)
	}
	r3, _ := s.Allocate(nil, false)
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
	s, err := Create(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	rng := rand.New(rand.NewSource(7))
	contents := map[PageID][]byte{}
	for i := 0; i < 50; i++ {
		id, err := s.Allocate(nil, false)
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

	reopened, err := Open(f, Options{})
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
		got, err := reopened.Read(id)
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
	s, err := Create(f, Options{}) // no cache: reads must hit the file
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate(nil, false)
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
	if _, err := s.Read(id); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted read err = %v, want ErrChecksum", err)
	}
}

func TestHeaderCorruptionRejectedOnOpen(t *testing.T) {
	f := NewMemFile()
	if _, err := Create(f, Options{}); err != nil {
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
	if _, err := Open(f, Options{}); !errors.Is(err, ErrChecksum) {
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
	if _, err := Open(f, Options{}); err == nil {
		t.Error("opened garbage file without error")
	}
}

func TestCacheHits(t *testing.T) {
	s, _ := newTestStore(t, 8)
	id, _ := s.Allocate(nil, false)
	if err := s.Write(id, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	for i := 0; i < 5; i++ {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Reads != 0 {
		t.Errorf("physical reads = %d, want 0 (write-through cache)", st.Reads)
	}
	if st.CacheHits != 5 {
		t.Errorf("cache hits = %d, want 5", st.CacheHits)
	}
}

func TestCacheEviction(t *testing.T) {
	s, _ := newTestStore(t, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := s.Allocate(nil, false)
		s.Write(id, []byte{byte(i)})
		ids = append(ids, id)
	}
	s.ResetStats()
	// Only the two most recent pages are cached.
	if _, err := s.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 1 || st.CacheHits != 0 {
		t.Errorf("stats after cold read = %+v", st)
	}
	if _, err := s.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("stats after warm read = %+v", st)
	}
}

// TestFrameStableAcrossWrite pins down the zero-copy ownership
// contract: Read returns a shared immutable frame, and a later Write
// installs a fresh frame instead of mutating the old one, so slices
// handed out earlier keep their contents.
func TestFrameStableAcrossWrite(t *testing.T) {
	s, _ := newTestStore(t, 4)
	id, _ := s.Allocate(nil, false)
	s.Write(id, []byte("immutable"))
	old, _ := s.Read(id)
	if err := s.Write(id, []byte("replaced!")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old[:9], []byte("immutable")) {
		t.Errorf("earlier frame mutated by write: %q", old[:9])
	}
	fresh, _ := s.Read(id)
	if !bytes.Equal(fresh[:9], []byte("replaced!")) {
		t.Errorf("read after write = %q", fresh[:9])
	}
}

func TestPoolZeroCapacity(t *testing.T) {
	var ev atomic.Uint64
	p := newPool(0, &ev)
	p.put(&Frame{id: 1, data: []byte("a")}, false)
	if p.get(1, false) != nil {
		t.Error("zero-capacity pool stored a frame")
	}
	if p.len() != 0 {
		t.Error("zero-capacity pool non-empty")
	}
}

func TestPoolDrop(t *testing.T) {
	var ev atomic.Uint64
	p := newPool(4, &ev)
	p.put(&Frame{id: 1, data: []byte("a")}, false)
	p.put(&Frame{id: 2, data: []byte("b")}, false)
	p.drop(1)
	if p.get(1, false) != nil {
		t.Error("dropped page still pooled")
	}
	if p.get(2, false) == nil {
		t.Error("unrelated page evicted by drop")
	}
}

// TestPoolEvictionOrder verifies LRU order within a shard: capacity 2
// keeps the pool unsharded, so touching page 1 must make page 2 the
// eviction victim.
func TestPoolEvictionOrder(t *testing.T) {
	var ev atomic.Uint64
	p := newPool(2, &ev)
	p.put(&Frame{id: 1, data: []byte("a")}, false)
	p.put(&Frame{id: 2, data: []byte("b")}, false)
	if p.get(1, false) == nil { // 1 becomes MRU; 2 is now LRU
		t.Fatal("page 1 missing")
	}
	p.put(&Frame{id: 3, data: []byte("c")}, false)
	if p.get(2, false) != nil {
		t.Error("LRU page 2 survived eviction")
	}
	if p.get(1, false) == nil || p.get(3, false) == nil {
		t.Error("MRU pages evicted out of order")
	}
	if ev.Load() != 1 {
		t.Errorf("evictions = %d, want 1", ev.Load())
	}
}

// TestPoolPinBlocksEviction verifies a pinned frame is rotated past by
// eviction (the shard temporarily exceeding capacity if needed) and
// becomes evictable again after Release.
func TestPoolPinBlocksEviction(t *testing.T) {
	var ev atomic.Uint64
	p := newPool(2, &ev)
	p.put(&Frame{id: 1, data: []byte("a")}, true) // pinned
	p.put(&Frame{id: 2, data: []byte("b")}, false)
	p.put(&Frame{id: 3, data: []byte("c")}, false) // evicts 2, not pinned 1
	if p.get(1, false) == nil {
		t.Error("pinned frame evicted")
	}
	if p.get(2, false) != nil {
		t.Error("unpinned frame survived while pinned one was protected")
	}
	// Pin the survivors too: the shard must over-fill rather than evict.
	if f := p.get(3, false); f == nil {
		t.Fatal("page 3 missing")
	} else {
		f.pins.Add(1)
	}
	p.put(&Frame{id: 4, data: []byte("d")}, false)
	if p.len() != 3 {
		t.Errorf("pool len = %d, want 3 (over-capacity with all-pinned residents)", p.len())
	}
	// Releasing page 1 makes it the eviction victim on the next insert.
	p.get(1, false).Release()
	p.put(&Frame{id: 5, data: []byte("e")}, false)
	if p.get(1, false) != nil {
		t.Error("released frame not evicted under pressure")
	}
}

// TestReadPinnedKeepsResident exercises pinning through the Store API:
// a pinned page survives eviction pressure without physical rereads,
// and is reclaimed normally once released.
func TestReadPinnedKeepsResident(t *testing.T) {
	s, _ := newTestStore(t, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := s.Allocate(nil, false)
		if err := s.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	f, err := s.ReadPinned(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != ids[0] || f.Data()[0] != 0 {
		t.Fatalf("pinned frame = id %d data %v", f.ID(), f.Data()[0])
	}
	// Churn every other page through the 2-frame pool.
	for round := 0; round < 3; round++ {
		for _, id := range ids[1:] {
			if _, err := s.Read(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.ResetStats()
	if _, err := s.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 0 || st.CacheHits != 1 {
		t.Errorf("pinned page not resident under churn: %+v", st)
	}
	f.Release()
	for round := 0; round < 3; round++ {
		for _, id := range ids[1:] {
			if _, err := s.Read(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.ResetStats()
	if _, err := s.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 1 {
		t.Errorf("released page still resident after churn: %+v", st)
	}
}

// TestZeroCapacityPassthrough verifies a cache-disabled store reads the
// file every time and counts every read as a miss.
func TestZeroCapacityPassthrough(t *testing.T) {
	s, _ := newTestStore(t, 0)
	id, _ := s.Allocate(nil, false)
	if err := s.Write(id, []byte("cold")); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	for i := 0; i < 3; i++ {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Reads != 3 || st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Errorf("passthrough stats = %+v", st)
	}
}

// blockingFile gates ReadAt on non-header pages so a test can hold a
// physical read open while other readers pile up behind it.
type blockingFile struct {
	*MemFile
	gate    chan struct{} // close to let reads proceed
	entered chan struct{} // receives one value per gated ReadAt entry
}

func (f *blockingFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= PageSize {
		f.entered <- struct{}{}
		<-f.gate
	}
	return f.MemFile.ReadAt(p, off)
}

// TestSingleFlightCoalescing holds one physical read open while K-1
// more readers request the same cold page; they must coalesce onto the
// leader's read: exactly one physical read, K-1 coalesced misses.
func TestSingleFlightCoalescing(t *testing.T) {
	mem := NewMemFile()
	s, err := Create(mem, Options{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate(nil, false)
	if err := s.Write(id, []byte("cold page")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Rebuild the store on a gated file so the page is cold again.
	bf := &blockingFile{MemFile: mem, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	s2, err := Open(bf, Options{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	results := make(chan []byte, readers)
	errs := make(chan error, readers)
	wg.Add(1)
	go func() { // leader: blocks inside ReadAt
		defer wg.Done()
		buf, err := s2.Read(id)
		if err != nil {
			errs <- err
			return
		}
		results <- buf
	}()
	<-bf.entered // leader is inside the physical read
	for i := 1; i < readers; i++ {
		wg.Add(1)
		go func() { // followers: must join the leader's flight
			defer wg.Done()
			buf, err := s2.Read(id)
			if err != nil {
				errs <- err
				return
			}
			results <- buf
		}()
	}
	// Give followers time to reach the in-flight map, then open the gate.
	time.Sleep(50 * time.Millisecond)
	close(bf.gate)
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	for buf := range results {
		if !bytes.Equal(buf[:9], []byte("cold page")) {
			t.Fatalf("coalesced read returned %q", buf[:9])
		}
	}
	st := s2.Stats()
	if st.Reads != 1 {
		t.Errorf("physical reads = %d, want 1 (single-flight)", st.Reads)
	}
	if st.Coalesced != readers-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, readers-1)
	}
	if st.CacheMisses != readers {
		t.Errorf("misses = %d, want %d", st.CacheMisses, readers)
	}
}

// TestPoolConcurrent hammers one pool from many goroutines mixing gets,
// puts, pins and drops (run under -race).
func TestPoolConcurrent(t *testing.T) {
	var ev atomic.Uint64
	p := newPool(64, &ev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := PageID(1 + (g*7+i)%128)
				switch i % 4 {
				case 0:
					p.put(&Frame{id: id, data: []byte{byte(i)}}, false)
				case 1:
					if f := p.get(id, true); f != nil {
						f.Release()
					}
				case 2:
					p.get(id, false)
				default:
					p.drop(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if p.len() > 96 { // 64 cap; transient pin overflow only
		t.Errorf("pool len = %d after churn", p.len())
	}
}

func TestOSFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(f, Options{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate(nil, false)
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
	s2, err := Open(f2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root, _ := s2.UserRoot()
	got, err := s2.Read(root)
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
	if f.Len() != 4 {
		t.Errorf("len = %d, want 4", f.Len())
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
	s, _ := newTestStore(t, 16)
	rng := rand.New(rand.NewSource(99))
	live := map[PageID][]byte{}
	var order []PageID
	for i := 0; i < 3000; i++ {
		switch {
		case len(order) == 0 || rng.Intn(3) > 0:
			id, err := s.Allocate(nil, false)
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
		got, err := s.Read(id)
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
	s, _ := newTestStore(t, 16)
	var ids []PageID
	for i := 0; i < 64; i++ {
		id, err := s.Allocate(nil, false)
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
					if _, err := s.Read(id); err != nil {
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
		if _, err := s.Read(id); err != nil {
			t.Fatalf("page %d unreadable after concurrent access: %v", id, err)
		}
	}
}

// TestConcurrentAllocateFree hammers the allocator from many
// goroutines; every returned ID must be unique among live pages.
func TestConcurrentAllocateFree(t *testing.T) {
	s, _ := newTestStore(t, 0)
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
				id, err := s.Allocate(nil, false)
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
	got, err := s.Read(id)
	if err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	if want := runImage(id, v); !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("page %d reads %v, want %v", id, got[:len(want)], want)
	}
}

// TestWriteBehindReadsPendingPages reads every appended page back while
// it still waits in the run, before, at and past the run's full size,
// with and without a frame: with no pool, every read goes to the file.
func TestWriteBehindReadsPendingPages(t *testing.T) {
	s, _ := newTestStore(t, 0)
	var ids []PageID
	for i := 0; i < 2*runPages+3; i++ {
		id, err := s.Allocate(runImage(PageID(i+1), 1), i%2 == 0)
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
	if st := s.Stats(); st.Writes != uint64(len(ids)) || st.Reads != st.CacheMisses {
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
	s, err := Create(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.Allocate(runImage(PageID(i), 1), false); err != nil {
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
	re, err := Open(mf, Options{})
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
	s, _ := newTestStore(t, 0)
	a, _ := s.Allocate(runImage(1, 1), false)
	b, _ := s.Allocate(runImage(2, 1), false)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate(runImage(1, 2), false)
	if err != nil || id != a {
		t.Fatalf("re-allocation = (%d, %v), want page %d", id, err, a)
	}
	checkImage(t, s, a, 2)
	checkImage(t, s, b, 1)

	c, _ := s.Allocate(runImage(3, 1), false)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Allocate(nil, false); err != nil || r != c {
		t.Fatalf("reserving = (%d, %v), want page %d", r, err, c)
	}
	if !s.pending(c) {
		t.Fatal("reserving a freed pending page wrote the run")
	}
	checkImage(t, s, c, 1)
}

// TestWriteBehindSyncMatchesPageAtATime: after Sync the file holds the
// bytes a store writing one page at a time leaves, whatever the run's
// boundaries and whichever pages took frames.
func TestWriteBehindSyncMatchesPageAtATime(t *testing.T) {
	const n = runPages + runPages/2
	runs, rf := newTestStore(t, 8)
	single, sf := newTestStore(t, 0)
	for i := 1; i <= n; i++ {
		// Lengths that rise and fall, so a page shorter than the one
		// before it at its place in the buffer must not keep its tail.
		img := bytes.Repeat(runImage(PageID(i), byte(i)), 1+(i*37)%800)
		if _, err := runs.Allocate(img, i%5 == 0); err != nil {
			t.Fatal(err)
		}
		id, err := single.Allocate(img, false)
		if err != nil {
			t.Fatal(err)
		}
		// A read of the page sends it out on its own.
		if _, err := single.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := runs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := single.Sync(); err != nil {
		t.Fatal(err)
	}
	if rf.Len() != (n+1)*PageSize || !bytes.Equal(rf.buf, sf.buf) {
		t.Fatalf("a synced store written in runs differs from one written page by page (%d and %d bytes)", rf.Len(), sf.Len())
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
		s, err := Create(f, Options{CacheSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= k; i++ {
			if _, err := s.Allocate(runImage(PageID(i), 1), i%7 == 0); err != nil {
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
	s, _ := newTestStore(t, 16)
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
				got, err := s.Read(id)
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
		if _, err := s.Allocate(runImage(PageID(i), 1), i%4 == 0); err != nil {
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
		got, err := s.Read(id)
		if err != nil {
			t.Fatalf("page %d after the race: %v", id, err)
		}
		if be32(got) != uint32(id) {
			t.Fatalf("page %d after the race reads page %d's image", id, be32(got))
		}
	}
}

// hintFile records the writeback hints a Store gives it, and answers
// each with err. The Store gives them on the appending goroutine.
type hintFile struct {
	*MemFile
	err   error
	hints [][2]int64 // {offset, length}
}

func (f *hintFile) StartWriteback(off, n int64) error {
	f.hints = append(f.hints, [2]int64{off, n})
	return f.err
}

// TestWriteBehindStartsWriteback: a full run sent out by the next append
// starts the writeback of exactly its bytes, and no other write does —
// not the partial run an fsync sends out, not a full run a commit's
// Flush sends out, not a write-through. A hint that fails fails nothing,
// every fsync is still issued, and the file holds the same bytes. A
// MemFile offers no hint; an *os.File on Linux does.
func TestWriteBehindStartsWriteback(t *testing.T) {
	var images [][]byte
	for _, hintErr := range []error{nil, errors.New("sync_file_range: function not implemented")} {
		f := &hintFile{MemFile: NewMemFile(), err: hintErr}
		s, err := Create(f, Options{CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		const appends = 600
		for i := 1; i <= appends; i++ {
			if _, err := s.Allocate(runImage(PageID(i), 1), i%5 == 0); err != nil {
				t.Fatal(err)
			}
		}
		run := int64(runPages * PageSize)
		want := [][2]int64{{PageSize, run}, {PageSize + run, run}}
		if got := f.hints; !slices.Equal(got, want) {
			t.Fatalf("%d appends gave hints %v, want %v", appends, got, want)
		}
		if err := s.SyncData(); err != nil {
			t.Fatal(err)
		}
		// A commit's pages, a full run of them, sent out by its Flush.
		for i := appends + 1; i <= appends+runPages; i++ {
			if _, err := s.Allocate(runImage(PageID(i), 1), false); err != nil {
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
		if id, err := s.Allocate(runImage(5, 2), false); err != nil || id != 5 {
			t.Fatalf("reuse = (%d, %v), want page 5", id, err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint(7); err != nil {
			t.Fatal(err)
		}
		if got := f.hints; !slices.Equal(got, want) {
			t.Fatalf("hints %v after the fsyncs, Flush and write-throughs, want only %v", got, want)
		}
		st := s.Stats()
		if st.Syncs != 3 || st.Writes != appends+runPages+2 {
			t.Fatalf("stats %+v: want 3 syncs and %d page writes", st, appends+runPages+2)
		}
		re, err := Open(f.MemFile, Options{})
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
	s, err := Create(of, Options{CacheSize: 8})
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
	mf, err := Create(NewMemFile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2*runPages+3; i++ {
		for _, st := range []*Store{s, mf} {
			if _, err := st.Allocate(runImage(PageID(i), 1), false); err != nil {
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
