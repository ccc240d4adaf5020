// Package wal implements a segmented, append-only write-ahead log with
// CRC-32-framed records and monotonic LSNs.
//
// The log is the durability substrate for the paged index: mutations
// append a logical record and (depending on sync policy) wait for it to
// become durable before the page store publishes the change. Concurrent
// committers coalesce into one fsync (group commit). A checkpoint makes
// the page file itself durable, after which covered segments are
// recycled.
//
// On-disk layout: each segment file starts with a 16-byte header
// (magic, version, first LSN), followed by frames of
//
//	[u32 payload len][u32 crc][u64 lsn][payload]
//
// where the CRC covers the LSN and payload. A crash can tear the last
// frame; Open detects the first frame whose length, LSN, or CRC is
// inconsistent, truncates the segment there, and drops any later
// segments — appends resume on a clean boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

const (
	segmentSuffix = ".seg"
	segHeaderLen  = 16
	frameHeader   = 16
	segMagic      = 0x4e574357 // "NWCW"
	segVersion    = 1

	// maxRecordLen bounds a frame's payload; anything larger in a
	// length field is garbage from a torn write.
	maxRecordLen = 16 << 20

	// DefaultSegmentBytes is the rotation threshold for the active
	// segment.
	DefaultSegmentBytes = 1 << 20
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCompacted is returned by NewReader when the requested LSN has
// already been recycled by a checkpoint: the caller must re-bootstrap
// from a snapshot instead of the log.
var ErrCompacted = errors.New("wal: lsn compacted")

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// size. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery, when positive, schedules a background fsync that
	// interval after an append leaves undurable records (the
	// SyncInterval policy). Zero disables the timer; callers sync
	// explicitly (SyncAlways) or not at all (SyncNever).
	SyncEvery time.Duration
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// Record is one logical entry recovered from the log.
type Record struct {
	LSN  uint64
	Data []byte
}

// Stats is a point-in-time snapshot of log activity.
type Stats struct {
	Appends     uint64 // records appended
	AppendBytes uint64 // payload bytes appended
	Syncs       uint64 // fsyncs issued (group commit coalesces)
	Rotations   uint64 // segment rotations
	Recycled    uint64 // segments removed after checkpoints
}

type segment struct {
	name     string
	file     File
	firstLSN uint64
	lastLSN  uint64 // 0 while the segment has no records
	size     int64
}

// Log is a segmented write-ahead log. Append/Sync are safe for
// concurrent use; Records is meant for single-threaded recovery right
// after Open.
type Log struct {
	fs  FS
	opt Options

	mu        sync.Mutex
	segs      []*segment // ascending by firstLSN; last is active
	nextLSN   uint64
	appended  uint64 // last LSN handed out by Append
	sinceCkpt int64  // frame bytes appended since the last checkpoint
	failed    error  // sticky: first append/rotation failure
	closed    bool

	// records holds what Open scanned, for recovery replay. Dropped at
	// the first checkpoint to free memory.
	records []Record

	// leases maps lease id → lowest LSN that holder may still need.
	// Checkpointed keeps every segment whose last record is at or above
	// the minimum of these floors, so a tailing reader can never have
	// its history recycled out from under it. Guarded by mu.
	leases   map[uint64]uint64
	leaseSeq uint64

	// syncMu serialises fsyncs: the holder is the group-commit leader,
	// everyone queued behind it finds durable already advanced.
	syncMu  sync.Mutex
	durable atomic.Uint64

	timerArmed atomic.Bool
	timerMu    sync.Mutex
	timer      *time.Timer

	stAppends     atomic.Uint64
	stAppendBytes atomic.Uint64
	stSyncs       atomic.Uint64
	stRotations   atomic.Uint64
	stRecycled    atomic.Uint64
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%016x%s", firstLSN, segmentSuffix)
}

// Create wipes any existing segments and starts an empty log whose first
// record will be LSN first (at least 1). The LSNs below first are the
// caller's: a checkpoint already covers them, so the log reports them
// appended and durable and never hands them out.
func Create(fs FS, opt Options, first uint64) (*Log, error) {
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	for _, name := range names {
		if err := fs.Remove(name); err != nil {
			return nil, fmt.Errorf("wal: remove stale segment %s: %w", name, err)
		}
	}
	first = max(first, 1)
	l := &Log{fs: fs, opt: opt, nextLSN: first, appended: first - 1}
	if err := l.addSegmentLocked(first); err != nil {
		return nil, err
	}
	l.durable.Store(first - 1)
	return l, nil
}

// Open scans existing segments, truncates a torn tail, and positions
// the log to append after the last intact record. Everything scanned is
// available through Records until the first checkpoint. first is the
// lowest LSN the log may hand out, the caller's checkpoint plus one: a
// directory with no segment, or with none past the checkpoint, yields a
// fresh log at first, so no record is ever appended under an LSN the
// checkpoint already covers (replay would skip it).
func Open(fs FS, opt Options, first uint64) (*Log, error) {
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	if len(names) == 0 {
		return Create(fs, opt, first)
	}
	l := &Log{fs: fs, opt: opt}
	torn := false
	for _, name := range names {
		if torn {
			// Segments past a torn tail cannot hold committed records
			// (appends are sequential); drop them.
			if err := fs.Remove(name); err != nil {
				return nil, fmt.Errorf("wal: drop post-tear segment %s: %w", name, err)
			}
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", name, err)
		}
		seg, segTorn, err := scanSegment(name, f, l.nextLSN, &l.records)
		if err != nil {
			f.Close()
			return nil, err
		}
		if seg == nil {
			// Header unreadable: the segment never got a single full
			// write. Treat it like a torn tail.
			f.Close()
			if err := fs.Remove(name); err != nil {
				return nil, fmt.Errorf("wal: drop torn segment %s: %w", name, err)
			}
			torn = true
			continue
		}
		l.segs = append(l.segs, seg)
		if seg.lastLSN != 0 {
			l.nextLSN = seg.lastLSN + 1
		} else {
			l.nextLSN = seg.firstLSN
		}
		torn = segTorn
	}
	if l.nextLSN < max(first, 1) {
		// Every intact record is one the checkpoint covers, or every
		// segment was torn away: start again above the checkpoint.
		for _, seg := range l.segs {
			seg.file.Close()
		}
		return Create(fs, opt, first)
	}
	l.appended = l.nextLSN - 1
	// Everything that survived the scan is on disk; only fsync state is
	// unknown, and recovery replays it anyway, so it is durable in the
	// only sense that matters after a restart.
	l.durable.Store(l.appended)
	return l, nil
}

// scanSegment validates a segment's header and frames, appending intact
// records to out. It returns the parsed segment (nil if even the header
// is unreadable), whether a torn tail was truncated, and any hard I/O
// error. expectLSN is the LSN the first record must carry when a prior
// segment already set the sequence; 0 accepts whatever the header says.
func scanSegment(name string, f File, expectLSN uint64, out *[]Record) (*segment, bool, error) {
	var hdr [segHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, false, nil // truncated before the header finished
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != segMagic {
		return nil, false, fmt.Errorf("wal: segment %s: bad magic", name)
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != segVersion {
		return nil, false, fmt.Errorf("wal: segment %s: unsupported version %d", name, v)
	}
	firstLSN := binary.BigEndian.Uint64(hdr[8:16])
	if expectLSN != 0 && firstLSN != expectLSN {
		return nil, false, fmt.Errorf("wal: segment %s: first LSN %d, want %d", name, firstLSN, expectLSN)
	}
	seg := &segment{name: name, file: f, firstLSN: firstLSN}
	size, err := f.Size()
	if err != nil {
		return nil, false, fmt.Errorf("wal: segment %s: size: %w", name, err)
	}
	off := int64(segHeaderLen)
	lsn := firstLSN
	for {
		if off+frameHeader > size {
			break
		}
		var fh [frameHeader]byte
		if _, err := f.ReadAt(fh[:], off); err != nil {
			break
		}
		plen := binary.BigEndian.Uint32(fh[0:4])
		crc := binary.BigEndian.Uint32(fh[4:8])
		gotLSN := binary.BigEndian.Uint64(fh[8:16])
		if plen == 0 || plen > maxRecordLen || gotLSN != lsn {
			break
		}
		if off+frameHeader+int64(plen) > size {
			break
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
			break
		}
		h := crc32.NewIEEE()
		h.Write(fh[8:16])
		h.Write(payload)
		if h.Sum32() != crc {
			break
		}
		*out = append(*out, Record{LSN: lsn, Data: payload})
		seg.lastLSN = lsn
		lsn++
		off += frameHeader + int64(plen)
	}
	torn := off < size
	if torn {
		if err := f.Truncate(off); err != nil {
			return nil, false, fmt.Errorf("wal: segment %s: truncate torn tail: %w", name, err)
		}
	}
	seg.size = off
	return seg, torn, nil
}

// addSegmentLocked creates a fresh segment whose first record will be
// firstLSN and makes it active. Caller holds mu (or has exclusive
// access during construction).
func (l *Log) addSegmentLocked(firstLSN uint64) error {
	name := segName(firstLSN)
	f, err := l.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	var hdr [segHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segVersion)
	binary.BigEndian.PutUint64(hdr[8:16], firstLSN)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", name, err)
	}
	l.segs = append(l.segs, &segment{name: name, file: f, firstLSN: firstLSN, size: segHeaderLen})
	return nil
}

// Append writes one record and returns its LSN. The record is in the OS
// buffer but not necessarily durable; call Sync (or rely on the
// SyncEvery timer) to make it so. A write failure is sticky: the log
// refuses further appends so no record can land after a hole.
func (l *Log) Append(data []byte) (uint64, error) {
	if len(data) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(data) > maxRecordLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	active := l.segs[len(l.segs)-1]
	if active.size >= l.opt.segmentBytes() && active.lastLSN != 0 {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			return 0, err
		}
		active = l.segs[len(l.segs)-1]
	}
	lsn := l.nextLSN
	frame := make([]byte, frameHeader+len(data))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(data)))
	binary.BigEndian.PutUint64(frame[8:16], lsn)
	copy(frame[frameHeader:], data)
	h := crc32.NewIEEE()
	h.Write(frame[8:16])
	h.Write(data)
	binary.BigEndian.PutUint32(frame[4:8], h.Sum32())
	if _, err := active.file.WriteAt(frame, active.size); err != nil {
		// The frame may be half on disk; recovery's CRC scan truncates
		// it. Refuse further appends so the torn frame stays the tail.
		l.failed = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	active.size += int64(len(frame))
	active.lastLSN = lsn
	l.nextLSN = lsn + 1
	l.appended = lsn
	l.sinceCkpt += int64(len(frame))
	l.stAppends.Add(1)
	l.stAppendBytes.Add(uint64(len(data)))
	if l.opt.SyncEvery > 0 {
		l.armTimer()
	}
	return lsn, nil
}

// rotateLocked seals the active segment (fsync so Sync never needs to
// revisit it) and opens a new one. Caller holds mu.
func (l *Log) rotateLocked() error {
	active := l.segs[len(l.segs)-1]
	if err := active.file.Sync(); err != nil {
		return fmt.Errorf("wal: sync on rotation: %w", err)
	}
	l.stSyncs.Add(1)
	advanceMax(&l.durable, active.lastLSN)
	if err := l.addSegmentLocked(l.nextLSN); err != nil {
		return err
	}
	l.stRotations.Add(1)
	return nil
}

// Sync makes every record up to lsn durable (lsn 0 means everything
// appended so far). Concurrent callers coalesce: one fsync covers all
// waiters queued behind the leader.
func (l *Log) Sync(lsn uint64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if lsn == 0 {
		lsn = l.appended
	}
	l.mu.Unlock()
	if l.durable.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= lsn {
		return nil // a leader already covered us
	}
	l.mu.Lock()
	if l.failed != nil && l.appended < lsn {
		err := l.failed
		l.mu.Unlock()
		return fmt.Errorf("wal: log failed: %w", err)
	}
	target := l.appended
	active := l.segs[len(l.segs)-1].file
	l.mu.Unlock()
	// Rotation fsyncs the sealed segment, so the active file alone
	// covers every undurable record.
	if err := active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.stSyncs.Add(1)
	advanceMax(&l.durable, target)
	return nil
}

func advanceMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// armTimer schedules a background sync if none is pending. Caller holds
// mu (so closed is stable).
func (l *Log) armTimer() {
	if !l.timerArmed.CompareAndSwap(false, true) {
		return
	}
	l.timerMu.Lock()
	l.timer = time.AfterFunc(l.opt.SyncEvery, func() {
		l.timerArmed.Store(false)
		_ = l.Sync(0) // best effort; SyncInterval trades loss window for latency
	})
	l.timerMu.Unlock()
}

// AppendedLSN returns the LSN of the last appended record (0 if none).
func (l *Log) AppendedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// SizeSinceCheckpoint returns frame bytes appended since the last
// Checkpointed call — the checkpoint trigger input.
func (l *Log) SizeSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// Records returns the recovered records with LSN > afterLSN, in order.
// Only meaningful between Open and the first checkpoint.
func (l *Log) Records(afterLSN uint64) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.records) && l.records[i].LSN <= afterLSN {
		i++
	}
	return l.records[i:]
}

// minRetainedLocked returns the lowest LSN any live lease still needs,
// and whether a lease exists at all. Caller holds mu.
func (l *Log) minRetainedLocked() (uint64, bool) {
	var floor uint64
	found := false
	for _, lsn := range l.leases {
		if !found || lsn < floor {
			floor, found = lsn, true
		}
	}
	return floor, found
}

// Checkpointed tells the log every record up to lsn is now applied in
// the durably synced page file: covered segments are recycled and the
// recovery cache is dropped. If the active segment itself is fully
// covered it is replaced by a fresh one, so a quiesced log occupies one
// near-empty segment. Segments a reader lease still retains are kept
// regardless — a checkpoint must never delete history a tailing reader
// has yet to stream.
func (l *Log) Checkpointed(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.records = nil
	l.sinceCkpt = 0
	floor, leased := l.minRetainedLocked()
	recyclable := func(seg *segment) bool {
		if seg.lastLSN == 0 || seg.lastLSN > lsn {
			return false
		}
		return !leased || seg.lastLSN < floor
	}
	if len(l.segs) > 0 {
		last := l.segs[len(l.segs)-1]
		if last.lastLSN != 0 && last.lastLSN <= lsn && recyclable(last) {
			// Everything is covered and unretained; start a fresh active
			// segment so recycling below can take the old one too.
			if err := l.addSegmentLocked(l.nextLSN); err != nil {
				return err
			}
		}
	}
	kept := l.segs[:0]
	for i, seg := range l.segs {
		isActive := i == len(l.segs)-1
		empty := seg.lastLSN == 0 && !isActive
		if !isActive && (recyclable(seg) || empty) {
			seg.file.Close()
			if err := l.fs.Remove(seg.name); err != nil {
				return fmt.Errorf("wal: recycle segment %s: %w", seg.name, err)
			}
			l.stRecycled.Add(1)
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// Close fsyncs outstanding records (best effort) and closes every
// segment. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var syncErr error
	if l.failed == nil && l.appended > l.durable.Load() {
		active := l.segs[len(l.segs)-1]
		if err := active.file.Sync(); err != nil {
			syncErr = fmt.Errorf("wal: close sync: %w", err)
		} else {
			l.stSyncs.Add(1)
			advanceMax(&l.durable, l.appended)
		}
	}
	l.closed = true
	var closeErr error
	for _, seg := range l.segs {
		if err := seg.file.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	l.mu.Unlock()
	l.timerMu.Lock()
	if l.timer != nil {
		l.timer.Stop()
	}
	l.timerMu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Stats returns a snapshot of log activity counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.stAppends.Load(),
		AppendBytes: l.stAppendBytes.Load(),
		Syncs:       l.stSyncs.Load(),
		Rotations:   l.stRotations.Load(),
		Recycled:    l.stRecycled.Load(),
	}
}
