// Package pager implements a disk-oriented fixed-size page store with a
// header page, an in-memory free list, per-page CRC-32 checksums and
// atomic read/write statistics. It caches nothing: every Read reaches
// the file, and the caller above it (the R*-tree's decoded-node cache)
// decides what stays in memory.
//
// It is the storage substrate beneath the paged R*-tree node store. The
// paper's evaluation (Section 5) uses a page size of 4096 bytes and
// counts R*-tree node accesses as the performance metric; the pager makes
// that accounting concrete: one tree node occupies exactly one page.
//
// # Concurrency
//
// A Store is safe for concurrent use and its read path is designed to
// scale with cores:
//
//   - File I/O is serialised per page by striped reader/writer locks, so
//     reads of different pages proceed in parallel and a write never
//     tears a concurrent read of its page. A read checks the page's CRC
//     and returns a payload its caller owns.
//   - Pages appended at the end of the file wait in one write-behind
//     run and reach the file in one write per run; a reader checks the
//     run's span lock-free and writes the run out only when it reads
//     one of its pages. A full run goes to a writer goroutine, which
//     writes it and asks the kernel to start writing it back at once,
//     so the next fsync waits only for the tail; the next run fills a
//     second buffer meanwhile.
//   - Statistics are atomic counters, snapshotted without stopping
//     readers.
//
// Allocation, free-list maintenance and header updates remain under one
// metadata mutex; they are rare compared to reads.
package pager

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the fixed on-disk page size in bytes, matching the paper's
// experimental setting.
const PageSize = 4096

// payloadSize is the number of bytes of each page available to callers;
// the remainder holds the page trailer (checksum).
const payloadSize = PageSize - trailerSize

const (
	trailerSize = 4          // CRC-32 of the payload
	magic       = 0x4e574351 // "NWCQ"
	version     = 1
)

// ioStripes is the number of striped page locks serialising file access.
// Two pages conflict only when their IDs collide modulo this count.
const ioStripes = 64

// runPages is the most pages the write-behind run holds (1 MiB): an
// append to a full run writes the run out first.
const runPages = 256

// PageID identifies a page within a file. Page 0 is the header page and
// is never handed out by Allocate.
type PageID uint32

// InvalidPage is the zero PageID; it doubles as the nil pointer in
// on-page data structures (page 0 is the header and never allocatable).
const InvalidPage PageID = 0

// Stats counts physical page operations since the store was opened (or
// since ResetStats). All counters are atomic; a snapshot taken during
// concurrent traffic is consistent per counter.
type Stats struct {
	// Reads and Writes count pages physically transferred to or from the
	// backing file. A page appended to the write-behind run is counted
	// when it joins the run, whose one write carries it to the file; a
	// Write that replaces its image there is not counted again.
	Reads  uint64
	Writes uint64
	Allocs uint64
	Frees  uint64
	// Syncs counts fsyncs of the backing file (Sync, SyncData,
	// WriteCheckpoint) — the dominant cost of checkpoints.
	Syncs uint64
	// SyncWait is the wall time spent inside the backing file's Sync: a
	// wait off the CPU, which a CPU profile does not show.
	SyncWait time.Duration
	// WriteWait is the wall time appends spent waiting for the previous
	// full run's write to land before handing on their own.
	WriteWait time.Duration
}

// storeStats is the atomic backing of Stats.
type storeStats struct {
	reads, writes, allocs, frees atomic.Uint64
	syncs                        atomic.Uint64
	syncWait, writeWait          atomic.Int64
}

func (s *storeStats) snapshot() Stats {
	return Stats{
		Reads:     s.reads.Load(),
		Writes:    s.writes.Load(),
		Allocs:    s.allocs.Load(),
		Frees:     s.frees.Load(),
		Syncs:     s.syncs.Load(),
		SyncWait:  time.Duration(s.syncWait.Load()),
		WriteWait: time.Duration(s.writeWait.Load()),
	}
}

func (s *storeStats) reset() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.allocs.Store(0)
	s.frees.Store(0)
	s.syncs.Store(0)
	s.syncWait.Store(0)
	s.writeWait.Store(0)
}

// ErrChecksum is returned when a page read fails CRC verification.
var ErrChecksum = errors.New("pager: page checksum mismatch")

// ErrPageRange is returned when a PageID refers past the end of the file
// or to the header page.
var ErrPageRange = errors.New("pager: page id out of range")

// File is the backing device abstraction: *os.File satisfies it, and
// MemFile provides an in-memory equivalent for tests and benchmarks.
// ReadAt and WriteAt must be safe for concurrent use (as io.ReaderAt
// and io.WriterAt already require); the Store serialises overlapping
// accesses to the same page itself.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	// Sync makes previously written bytes durable (fsync). Page writes
	// land in the OS cache, and the Store writes its pending run out
	// before every Sync; checkpoints call Sync to pin the pages to
	// stable storage.
	Sync() error
}

// writebackStarter is a File that can start writing a byte range back
// to its device without waiting for it (sync_file_range's
// SYNC_FILE_RANGE_WRITE). The Store's writer calls it after each full
// run's write, so that the fsync that follows waits only for what was
// written since. It is a hint: it promises nothing about durability,
// and its error is ignored. *os.File gets it from osWriteback.
type writebackStarter interface {
	StartWriteback(off, n int64) error
}

// writebackOf returns f's way of starting writeback, nil if it has none.
func writebackOf(f File) func(off, n int64) error {
	switch f := f.(type) {
	case writebackStarter:
		return f.StartWriteback
	case *os.File:
		return osWriteback(f)
	}
	return nil
}

// MemFile is an in-memory File for tests and benchmarks. It also serves
// as a WAL segment (package wal's MemFS hands these out), so one type
// backs both halves of an in-memory paged index and its fault-injecting
// wrappers.
type MemFile struct {
	mu  sync.RWMutex
	buf []byte
}

// NewMemFile returns an empty in-memory file.
func NewMemFile() *MemFile { return &MemFile{} }

// ReadAt implements io.ReaderAt.
func (f *MemFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the file as needed.
func (f *MemFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.grow(off + int64(len(p)))
	copy(f.buf[off:], p)
	return len(p), nil
}

// Truncate implements File.
func (f *MemFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size <= int64(len(f.buf)) {
		f.buf = f.buf[:size]
		return nil
	}
	f.grow(size)
	return nil
}

// grow extends the file with zeros to size bytes. Appending amortises
// the copies, so a file written page after page at its end is not
// copied whole at every write. Caller holds mu.
func (f *MemFile) grow(size int64) {
	if n := size - int64(len(f.buf)); n > 0 {
		f.buf = append(f.buf, make([]byte, n)...)
	}
}

// Sync implements File; memory is always "durable".
func (f *MemFile) Sync() error { return nil }

// Size returns the current file size in bytes.
func (f *MemFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.buf)), nil
}

// Close does nothing: the bytes stay, for a later store or log to
// reopen, as a disk keeps them.
func (f *MemFile) Close() error { return nil }

// Store is a page store over a File. It is safe for concurrent use; see
// the package comment for the locking design.
type Store struct {
	file  File
	stats storeStats

	// numPages is the number of pages in the file, including the header
	// page; read lock-free on the hot path for range checks.
	numPages atomic.Uint32

	// io stripes serialise file access per page: readers of a page take
	// the stripe's read lock, the writer its write lock, so a write can
	// never tear a concurrent read of the same page while reads of
	// different pages proceed in parallel.
	io [ioStripes]sync.RWMutex

	// meta guards the allocation state and the header image. Lock order:
	// meta before runMu, and meta before any io stripe; no stripe is
	// held while runMu is taken. The read path takes neither meta nor
	// more than one stripe.
	meta     sync.Mutex
	dirtyHdr bool

	// run is the write-behind run: the whole images (CRC trailer in
	// place) of the pages Allocate appended at the end of the file and
	// has not sent out, consecutive from runStart. The full run before
	// it may be in flight, its pages just before runStart; spare is the
	// buffer of the last flight that landed, for the next run. runMu
	// guards all four. A buffer grows by doubling, is reused from run to run and
	// is released at every fsync, so an idle store holds none. runSpan
	// mirrors the pages of the flight and the run as start<<32 | end
	// for the read path's lock-free check; it is zero when both are
	// empty, and it drops a page only after the write that held it
	// returned.
	runMu    sync.Mutex
	runStart PageID
	run      []byte
	flight   *flight
	spare    []byte
	runSpan  atomic.Uint64
	// writeback starts the writeback of a full run's bytes; nil when the
	// file offers none.
	writeback func(off, n int64) error

	// free holds the reusable pages. It lives in memory only: Free never
	// writes to a page, because the last durable checkpoint may still
	// reference it, and the owner reinstates the set after a reopen
	// (AddFreePages) from what its own structure reaches.
	free []PageID

	// ckptLSN is the WAL position whose effects the on-disk pages fully
	// contain; persisted in the header by WriteCheckpoint. Zero on
	// stores that never checkpointed (including pre-WAL files).
	ckptLSN uint64

	// replLSN is the highest leader LSN a replication follower has
	// applied into this store; zero on leaders and on files written
	// before replication existed (the header bytes read back as zero).
	// Persisted alongside ckptLSN so the replica position commits
	// atomically with the checkpoint that contains its effects.
	replLSN uint64

	// UserRoot is an application-owned page reference persisted in the
	// header (the R*-tree stores its root here). Set via SetUserRoot.
	userRoot PageID
	userMeta [64]byte
}

func newStore(f File) *Store {
	return &Store{file: f, writeback: writebackOf(f)}
}

// Create initialises a fresh store on f, truncating any prior content.
func Create(f File) (*Store, error) {
	if err := f.Truncate(0); err != nil {
		return nil, fmt.Errorf("pager: truncate: %w", err)
	}
	s := newStore(f)
	s.numPages.Store(1) // header
	s.dirtyHdr = true
	if err := s.flushHeaderLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open attaches to an existing store on f, validating the header.
func Open(f File) (*Store, error) {
	s := newStore(f)
	if err := s.readHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

// PayloadSize returns the usable bytes per page.
func PayloadSize() int { return payloadSize }

// Stats returns a snapshot of the operation counters. It takes no lock
// and never blocks readers or writers.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// ResetStats zeroes the operation counters.
func (s *Store) ResetStats() { s.stats.reset() }

// NumPages returns the total number of pages in the file, including the
// header page and any free pages.
func (s *Store) NumPages() int { return int(s.numPages.Load()) }

// SetUserRoot records an application root page and metadata blob (at most
// 64 bytes) in the header. Call Sync to persist.
func (s *Store) SetUserRoot(root PageID, meta []byte) error {
	if len(meta) > len(s.userMeta) {
		return fmt.Errorf("pager: user meta %d bytes exceeds %d", len(meta), len(s.userMeta))
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	s.userRoot = root
	s.userMeta = [64]byte{}
	copy(s.userMeta[:], meta)
	s.dirtyHdr = true
	return nil
}

// UserRoot returns the application root page and metadata recorded in the
// header.
func (s *Store) UserRoot() (PageID, []byte) {
	s.meta.Lock()
	defer s.meta.Unlock()
	meta := make([]byte, len(s.userMeta))
	copy(meta, s.userMeta[:])
	return s.userRoot, meta
}

// Allocate returns a fresh page holding first (at most PayloadSize
// bytes), reusing a freed page when available: a page's first image is
// its one write. A nil first reserves the page instead, for a caller
// that writes it before anything reads it: a reused page keeps its
// bytes and a new one is zeros.
//
// A reused page is written through. A new page joins the write-behind
// run, which reaches the file in one write: on the writer goroutine
// once it is full, or when a read misses on one of its pages, at Flush
// and before every fsync; nothing durable names the page before then.
// A Write to a page still in the run replaces its image there.
func (s *Store) Allocate(first []byte) (PageID, error) {
	if len(first) > payloadSize {
		return InvalidPage, fmt.Errorf("pager: payload %d bytes exceeds page payload %d", len(first), payloadSize)
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	s.stats.allocs.Add(1)
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		if first != nil {
			if err := s.writePage(id, first); err != nil {
				return InvalidPage, err
			}
		}
		s.free = s.free[:n-1]
		return id, nil
	}
	id := PageID(s.numPages.Load())
	// Enter the page into the run before publishing the new page count,
	// so a racing reader that passes the range check finds the page in
	// the run or in the file, never a hole.
	if err := s.appendRun(id, first); err != nil {
		return InvalidPage, err
	}
	s.numPages.Add(1)
	s.dirtyHdr = true
	return id, nil
}

// appendRun adds page id, the page after the run's last, to the run.
// A full run is handed to a writer goroutine first, which writes it and
// calls the writeback hint for its bytes; the next run fills the spare
// buffer meanwhile. No other write gets the hint: a commit's Flush, a
// partial run sent out before an fsync or by a read, and a
// write-through leave the mutation path as it was. Caller holds meta.
func (s *Store) appendRun(id PageID, first []byte) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if len(s.run) == runPages*PageSize {
		if err := s.sendRunLocked(); err != nil {
			return err
		}
	}
	if len(s.run) == 0 {
		s.runStart = id
	}
	off := len(s.run)
	if cap(s.run)-off < PageSize {
		// Double, as append would not past small sizes: a build's run
		// then allocates 2 MiB on its way to full, not 5.
		s.run = slices.Grow(s.run, max(off, PageSize))
	}
	s.run = s.run[:off+PageSize]
	raw := s.run[off:]
	clear(raw[copy(raw, first):payloadSize])
	putBE32(raw[payloadSize:], crc32.ChecksumIEEE(raw[:payloadSize]))
	s.stats.writes.Add(1)
	s.runSpan.Store(uint64(s.spanStart())<<32 | uint64(id+1))
	return nil
}

// flight is a full run on its way to the file. A writer goroutine
// writes buf at page start, gives the writeback hint and closes done;
// err is the write's error, read once done is closed. failed, guarded
// by runMu, records that err was returned: the next wait writes the
// run itself.
type flight struct {
	start  PageID
	buf    []byte
	done   chan struct{}
	err    error
	failed bool
}

// sendRunLocked hands the full run to a writer goroutine and starts the
// next one in the spare buffer. The flight before it lands first, so at
// most one run is in flight; the wait counts as WriteWait. Caller holds
// runMu.
func (s *Store) sendRunLocked() error {
	began := time.Now()
	err := s.landLocked()
	s.stats.writeWait.Add(int64(time.Since(began)))
	if err != nil {
		return err
	}
	f := &flight{start: s.runStart, buf: s.run, done: make(chan struct{})}
	s.flight = f
	if s.run = s.spare[:0]; s.run == nil {
		// A full run was just made; the next is likely to be full too.
		s.run = make([]byte, 0, runPages*PageSize)
	}
	s.spare = nil
	go func() {
		defer close(f.done)
		if f.err = s.writeRun(f.start, f.buf); f.err == nil && s.writeback != nil {
			// Only an fsync makes the run durable; an error here (ENOSYS
			// under a seccomp filter, EINVAL on some filesystems) costs
			// nothing but the early start.
			_ = s.writeback(int64(f.start)*PageSize, int64(len(f.buf)))
		}
	}()
	return nil
}

// landLocked waits for the run in flight, if any, to reach the file. A
// failed write's error is returned once, and the run stays in flight
// for the next wait to write again. Neither the writer nor this wait
// holds a stripe: no reader reads a page in flight from the file
// before the wait returns, since it sees the page pending and waits
// here. Caller holds runMu.
func (s *Store) landLocked() error {
	f := s.flight
	if f == nil {
		return nil
	}
	<-f.done
	if f.failed {
		if err := s.writeRun(f.start, f.buf); err != nil {
			return err
		}
	} else if f.err != nil {
		f.failed = true
		return f.err
	}
	s.flight, s.spare = nil, f.buf
	s.runSpan.Store(0)
	if len(s.run) > 0 {
		s.runSpan.Store(uint64(s.runStart)<<32 | uint64(s.runEnd()))
	}
	return nil
}

// writeRun writes buf, a run starting at page start, to the file in
// one WriteAt.
func (s *Store) writeRun(start PageID, buf []byte) error {
	if _, err := s.file.WriteAt(buf, int64(start)*PageSize); err != nil {
		return fmt.Errorf("pager: write pages %d-%d: %w", start, start+PageID(len(buf)/PageSize)-1, err)
	}
	return nil
}

// spanStart is the first page of the flight, or of the run when none is
// in flight. Caller holds runMu.
func (s *Store) spanStart() PageID {
	if s.flight != nil {
		return s.flight.start
	}
	return s.runStart
}

// runEnd is the page after the run's last. Caller holds runMu.
func (s *Store) runEnd() PageID {
	return s.runStart + PageID(len(s.run)/PageSize)
}

// pending reports whether page id may wait in the run or in flight. It
// takes no lock: a false answer for a published page means the write
// that held it has returned.
func (s *Store) pending(id PageID) bool {
	span := s.runSpan.Load()
	return uint32(id) >= uint32(span>>32) && uint32(id) < uint32(span)
}

// inFlight reports whether page id is in the run in flight. Caller
// holds runMu.
func (s *Store) inFlight(id PageID) bool {
	return s.flight != nil && id >= s.flight.start && id < s.runStart
}

// rewriteRun replaces page id's image in the run with raw and reports
// whether the run still held the page. A page in flight lands first,
// and is then the file's. The caller holds no stripe.
func (s *Store) rewriteRun(id PageID, raw []byte) (bool, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.inFlight(id) {
		return false, s.landLocked()
	}
	if id < s.runStart || id >= s.runEnd() {
		return false, nil
	}
	copy(s.run[int(id-s.runStart)*PageSize:], raw)
	return true, nil
}

// flushRunFor makes sure the file has page id's image: it waits for the
// page's flight to land, or writes the run out if it holds the page.
// The caller holds no stripe.
func (s *Store) flushRunFor(id PageID) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.inFlight(id) {
		return s.landLocked()
	}
	if id < s.runStart || id >= s.runEnd() {
		return nil
	}
	return s.flushRunLocked()
}

// flushRunLocked lands the flight, then writes the run to the file in
// one WriteAt and empties it, keeping the buffer for the next appends.
// No reader reads a run page from the file before this returns, so no
// stripe is needed: a reader that sees the page pending waits on
// runMu. On error the run stays, for the next attempt. Caller holds
// runMu.
func (s *Store) flushRunLocked() error {
	if err := s.landLocked(); err != nil {
		return err
	}
	if len(s.run) == 0 {
		return nil
	}
	if err := s.writeRun(s.runStart, s.run); err != nil {
		return err
	}
	s.run = s.run[:0]
	s.runSpan.Store(0)
	return nil
}

// Flush writes the run out without an fsync, once the run in flight has
// landed. A commit calls it once it has written its pages, so that they
// reach the file in one write and the run never holds more than one
// commit's pages.
func (s *Store) Flush() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.flushRunLocked()
}

// Close waits for the run in flight, if any, to land and returns its
// write's error, unless an earlier call returned it. After it no write
// or writeback hint of the store's reaches the file, so the file's
// owner may close the file, and its descriptor go to another file. The
// run that has not gone out is not written: what no Flush or fsync
// sent out was never promised to the file. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if f := s.flight; f != nil {
		<-f.done
		if !f.failed {
			return f.err
		}
	}
	return nil
}

// releaseRunLocked writes the run out and drops its buffer; every fsync
// path calls it first. Caller holds meta.
func (s *Store) releaseRunLocked() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if err := s.flushRunLocked(); err != nil {
		return err
	}
	s.run, s.spare = nil, nil
	return nil
}

// Free returns a page to the free list; a later Allocate reuses it. The
// page's bytes are left untouched.
func (s *Store) Free(id PageID) error {
	if err := s.checkRange(id); err != nil {
		return err
	}
	s.meta.Lock()
	defer s.meta.Unlock()
	s.stats.frees.Add(1)
	s.free = append(s.free, id)
	return nil
}

// AddFreePages hands the free list a batch of reusable pages. Recovery
// uses it to reinstate the free set: every page the recovered tree does
// not reach.
func (s *Store) AddFreePages(ids []PageID) {
	s.meta.Lock()
	defer s.meta.Unlock()
	s.free = append(s.free, ids...)
}

// Read returns the payload of page id, read from the file under the
// page's stripe read lock and checked against its CRC. It reads into
// page, a buffer of at least PageSize bytes, and returns its first
// PayloadSize; a nil page reads into a fresh buffer. Either way the
// slice is the caller's own: no other reader shares it and no later
// Write changes it. A page still in the run sends the run to the file
// first, and a page in flight waits for its run to land.
func (s *Store) Read(id PageID, page []byte) ([]byte, error) {
	if err := s.checkRange(id); err != nil {
		return nil, err
	}
	if s.pending(id) {
		if err := s.flushRunFor(id); err != nil {
			return nil, err
		}
	}
	if page == nil {
		page = make([]byte, PageSize)
	}
	raw := page[:PageSize]
	mu := &s.io[uint32(id)%ioStripes]
	mu.RLock()
	defer mu.RUnlock()
	if _, err := s.file.ReadAt(raw, int64(id)*PageSize); err != nil {
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	s.stats.reads.Add(1)
	payload := raw[:payloadSize:payloadSize]
	if got, want := crc32.ChecksumIEEE(payload), be32(raw[payloadSize:]); got != want {
		return nil, fmt.Errorf("%w: page %d", ErrChecksum, id)
	}
	return payload, nil
}

// Write stores payload (at most PayloadSize bytes) into page id.
func (s *Store) Write(id PageID, payload []byte) error {
	if err := s.checkRange(id); err != nil {
		return err
	}
	if len(payload) > payloadSize {
		return fmt.Errorf("pager: payload %d bytes exceeds page payload %d", len(payload), payloadSize)
	}
	return s.writePage(id, payload)
}

// writePage writes the page's image, checksum in place. A page still in
// the run takes the image there, to reach the file in the run's one
// write; any other is written through under the page's stripe write
// lock, so no reader sees half of it. No reader reads a run page from
// the file before the run's write, so the image in the run is the one a
// later read finds.
func (s *Store) writePage(id PageID, payload []byte) error {
	raw := make([]byte, PageSize)
	copy(raw, payload)
	putBE32(raw[payloadSize:], crc32.ChecksumIEEE(raw[:payloadSize]))
	if s.pending(id) {
		if held, err := s.rewriteRun(id, raw); held || err != nil {
			return err
		}
	}
	mu := &s.io[uint32(id)%ioStripes]
	mu.Lock()
	defer mu.Unlock()
	if _, err := s.file.WriteAt(raw, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	s.stats.writes.Add(1)
	return nil
}

// Sync writes the run and the header out and fsyncs the backing file,
// so after Sync the file is a complete, reopenable, durable image.
func (s *Store) Sync() error {
	s.meta.Lock()
	defer s.meta.Unlock()
	if err := s.releaseRunLocked(); err != nil {
		return err
	}
	if s.dirtyHdr {
		if err := s.flushHeaderLocked(); err != nil {
			return err
		}
	}
	return s.fsyncLocked()
}

// SyncData writes the run out and fsyncs the backing file without
// touching the header. The checkpoint protocol uses it to pin shadow
// pages to stable storage before the header flip makes them reachable.
func (s *Store) SyncData() error {
	s.meta.Lock()
	defer s.meta.Unlock()
	if err := s.releaseRunLocked(); err != nil {
		return err
	}
	return s.fsyncLocked()
}

// CheckpointLSN returns the WAL position recorded by the last
// WriteCheckpoint (zero if none).
func (s *Store) CheckpointLSN() uint64 {
	s.meta.Lock()
	defer s.meta.Unlock()
	return s.ckptLSN
}

// ReplicaLSN returns the follower replica position recorded in the
// header image (zero on leaders).
func (s *Store) ReplicaLSN() uint64 {
	s.meta.Lock()
	defer s.meta.Unlock()
	return s.replLSN
}

// SetReplicaLSN records the highest applied leader LSN in the header
// image. It becomes durable with the next WriteCheckpoint, whose single
// header write commits both LSNs atomically.
func (s *Store) SetReplicaLSN(lsn uint64) {
	s.meta.Lock()
	if s.replLSN != lsn {
		s.replLSN = lsn
		s.dirtyHdr = true
	}
	s.meta.Unlock()
}

// WriteCheckpoint atomically commits the current root/page state as the
// durable image covering WAL records up to lsn: it writes the header
// (root, page count, checkpoint LSN) in one page-sized write and fsyncs.
// Callers must have fsynced the data pages first (SyncData); the single
// header write is the commit point — before it the old checkpoint is
// recovered, after it the new one.
func (s *Store) WriteCheckpoint(lsn uint64) error {
	s.meta.Lock()
	defer s.meta.Unlock()
	// A page the header counts is in the file before the header is.
	if err := s.releaseRunLocked(); err != nil {
		return err
	}
	s.ckptLSN = lsn
	if err := s.flushHeaderLocked(); err != nil {
		return err
	}
	return s.fsyncLocked()
}

// fsyncLocked syncs the backing file, counts it and times the wait.
// Caller holds meta.
func (s *Store) fsyncLocked() error {
	start := time.Now()
	err := s.file.Sync()
	s.stats.syncWait.Add(int64(time.Since(start)))
	if err != nil {
		return fmt.Errorf("pager: sync: %w", err)
	}
	s.stats.syncs.Add(1)
	return nil
}

func (s *Store) checkRange(id PageID) error {
	if n := PageID(s.numPages.Load()); id == InvalidPage || id >= n {
		return fmt.Errorf("%w: page %d of %d", ErrPageRange, id, n)
	}
	return nil
}

// Header layout (page 0 payload):
//
//	[0:4]   magic
//	[4:8]   version
//	[8:12]  numPages
//	[12:16] InvalidPage (once the head of an on-disk free chain, now unused)
//	[16:20] userRoot
//	[20:84] userMeta
//	[84:92] checkpoint LSN
//	[92:100] replica LSN (followers only; zero otherwise)
func (s *Store) flushHeaderLocked() error {
	buf := make([]byte, payloadSize)
	putBE32(buf[0:4], magic)
	putBE32(buf[4:8], version)
	putBE32(buf[8:12], s.numPages.Load())
	putBE32(buf[12:16], uint32(InvalidPage))
	putBE32(buf[16:20], uint32(s.userRoot))
	copy(buf[20:84], s.userMeta[:])
	putBE64(buf[84:92], s.ckptLSN)
	putBE64(buf[92:100], s.replLSN)
	raw := make([]byte, PageSize)
	copy(raw, buf)
	putBE32(raw[payloadSize:], crc32.ChecksumIEEE(raw[:payloadSize]))
	if _, err := s.file.WriteAt(raw, 0); err != nil {
		return fmt.Errorf("pager: write header: %w", err)
	}
	s.dirtyHdr = false
	return nil
}

func (s *Store) readHeader() error {
	raw := make([]byte, PageSize)
	if _, err := s.file.ReadAt(raw, 0); err != nil {
		return fmt.Errorf("pager: read header: %w", err)
	}
	payload := raw[:payloadSize]
	if got := crc32.ChecksumIEEE(payload); got != be32(raw[payloadSize:]) {
		return fmt.Errorf("%w: header", ErrChecksum)
	}
	if be32(payload[0:4]) != magic {
		return errors.New("pager: bad magic, not a page store")
	}
	if v := be32(payload[4:8]); v != version {
		return fmt.Errorf("pager: unsupported version %d", v)
	}
	// A count or a root the file cannot back is refused here: page 0 is
	// the header and no page past the file's end exists, so Allocate
	// would hand out the header, or a reader (and the owner sizing a free
	// list by the count) would chase pages that are not there. A free
	// chain at [12:16], from a file written before the list moved into
	// memory, is ignored; its pages are reclaimed with the rest.
	n := be32(payload[8:12])
	if n == 0 {
		return errors.New("pager: header counts no pages")
	}
	if !holdsPages(s.file, n) {
		return fmt.Errorf("pager: header counts %d pages, past the end of the file", n)
	}
	root := be32(payload[16:20])
	if root >= n {
		return fmt.Errorf("pager: header root page %d is not among its %d pages", root, n)
	}
	s.numPages.Store(n)
	s.userRoot = PageID(root)
	copy(s.userMeta[:], payload[20:84])
	s.ckptLSN = be64(payload[84:92])
	s.replLSN = be64(payload[92:100])
	return nil
}

// holdsPages reports whether f is long enough for n whole pages. It asks
// for the length where f can tell it (*os.File, MemFile) and otherwise
// reads the last byte of page n-1.
func holdsPages(f File, n uint32) bool {
	end := int64(n) * PageSize
	switch f := f.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		fi, err := f.Stat()
		return err == nil && fi.Size() >= end
	case interface{ Size() (int64, error) }:
		size, err := f.Size()
		return err == nil && size >= end
	}
	var last [1]byte
	_, err := f.ReadAt(last[:], end-1)
	return err == nil
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putBE32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func be64(b []byte) uint64 {
	return uint64(be32(b[:4]))<<32 | uint64(be32(b[4:8]))
}

func putBE64(b []byte, v uint64) {
	putBE32(b[:4], uint32(v>>32))
	putBE32(b[4:8], uint32(v))
}
