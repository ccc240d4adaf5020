package pager

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	id, err := s.Allocate(payload)
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
// page as zeros and leaves a recycled one as it was.
func TestAllocateFirstImage(t *testing.T) {
	s, _ := newTestStore(t, 0)
	old, err := s.Allocate([]byte("old"))
	if err != nil {
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
	if _, err := s.Allocate(make([]byte, PageSize)); err == nil {
		t.Error("oversized first image accepted")
	}
	id, _ := s.Allocate(nil)
	if err := s.Write(id, make([]byte, PageSize)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestFreeListReuse(t *testing.T) {
	s, _ := newTestStore(t, 0)
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
	s, err := Create(f, Options{})
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
	id, _ := s.Allocate(nil)
	if err := s.Write(id, []byte("precious data")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the page's on-disk image.
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
	id, _ := s.Allocate(nil)
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
		id, _ := s.Allocate(nil)
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
	id, _ := s.Allocate(nil)
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
		id, _ := s.Allocate(nil)
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
	id, _ := s.Allocate(nil)
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
	id, _ := s.Allocate(nil)
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
}

func TestManyPagesStress(t *testing.T) {
	s, _ := newTestStore(t, 16)
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
