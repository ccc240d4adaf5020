package nwcq

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"nwcq/internal/geom"
	"nwcq/internal/grid"
	"nwcq/internal/obs"
	"nwcq/internal/pager"
	"nwcq/internal/qcache"
	"nwcq/internal/rstar"
	"nwcq/internal/sub"
	"nwcq/internal/wal"
)

// PagedIndex is an Index whose R*-tree nodes live on 4096-byte pages in
// a file, one node per page — the disk-oriented form the paper's I/O
// accounting assumes. Every page is checksummed (CRC-32, verified once
// when it enters the buffer pool) and reads go through a sharded pool
// of immutable frames shared zero-copy by concurrent queries, with a
// decoded-node cache above it; size both with WithPageCacheSize and
// WithNodeCacheSize.
//
// Mutations (Insert, Delete and the batch forms) are crash-safe by
// default: each is logged to a write-ahead log beside the index file
// (<path>.wal/) before its pages are published, and OpenPaged replays
// committed records after a crash. WithWALSync selects how eagerly
// records are fsynced; WithoutWAL opts out entirely, in which case only
// Sync/Close make mutations durable. See durable.go and DESIGN.md §10.
//
// The density grid and IWP pointers are derived structures; they are
// rebuilt when the file is opened.
type PagedIndex struct {
	Index
	pages *pager.Store
	file  pagedFile
	log   *wal.Log // nil when built WithoutWAL
	// closed makes Close idempotent: only the first call tears down.
	closed atomic.Bool
}

// pagedFile is the index file seam: *os.File in production, an
// in-memory or fault-injecting implementation in tests.
type pagedFile interface {
	pager.File
	Close() error
}

// PageStats mirrors the pager's operation counters.
type PageStats struct {
	// Reads and Writes count physical page transfers.
	Reads  uint64
	Writes uint64
	// CacheHits and CacheMisses count buffer-pool outcomes; Evictions
	// counts frames dropped for room; Coalesced counts cold reads served
	// by piggybacking on another reader's in-flight file read.
	CacheHits   uint64
	CacheMisses uint64
	Evictions   uint64
	Coalesced   uint64
	// Syncs counts fsyncs of the page file — checkpoint cost.
	Syncs uint64
}

// defaultPageCache is the buffer-pool capacity (in pages) used when
// WithPageCacheSize is not given.
const defaultPageCache = 256

// resolveCaches applies the cache defaults for paged indexes.
func (o *buildOptions) resolveCaches() (pageCache, nodeCache int) {
	pageCache = defaultPageCache
	if o.pageCacheSet {
		pageCache = o.pageCache
	}
	nodeCache = rstar.DefaultNodeCacheSize
	if o.nodeCacheSet {
		nodeCache = o.nodeCache
	}
	return pageCache, nodeCache
}

// walDirFor returns the WAL directory accompanying an index file.
func walDirFor(path string) string { return path + ".wal" }

// resolveWALFS opens (creating if needed) the WAL directory for path,
// or returns nil when the build options disable the WAL.
func resolveWALFS(path string, o buildOptions) (wal.FS, error) {
	if o.walDisabled {
		return nil, nil
	}
	fs, err := wal.NewDirFS(walDirFor(path))
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// walOptions maps the build options onto the log's knobs.
func walOptions(o buildOptions) wal.Options {
	opt := wal.Options{SegmentBytes: o.walSegmentBytes}
	if o.walSync == SyncInterval {
		opt.SyncEvery = o.walSyncInterval
		if opt.SyncEvery <= 0 {
			opt.SyncEvery = defaultSyncInterval
		}
	}
	return opt
}

// BuildPaged indexes points into a page file at path (created or
// truncated), persists the tree, and returns a queryable index whose
// mutations are WAL-protected (unless WithoutWAL). Close it to release
// the file.
func BuildPaged(points []Point, path string, opts ...BuildOption) (*PagedIndex, error) {
	o := buildOptions{maxEntries: 50, gridCellSize: 25}
	for _, opt := range opts {
		opt(&o)
	}
	if o.maxEntries > rstar.MaxPagedEntries() {
		return nil, fmt.Errorf("nwcq: fan-out %d exceeds page capacity %d", o.maxEntries, rstar.MaxPagedEntries())
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	wfs, err := resolveWALFS(path, o)
	if err != nil {
		f.Close()
		return nil, err
	}
	return buildPagedOn(points, f, wfs, o)
}

// OpenPaged reopens an index file written by BuildPaged, replaying any
// write-ahead log records past the last checkpoint (crash recovery).
// Build options other than the grid cell size are read from the file;
// the derived structures (density grid, IWP pointers) are rebuilt.
func OpenPaged(path string, opts ...BuildOption) (*PagedIndex, error) {
	o := buildOptions{maxEntries: 50, gridCellSize: 25}
	for _, opt := range opts {
		opt(&o)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	wfs, err := resolveWALFS(path, o)
	if err != nil {
		f.Close()
		return nil, err
	}
	return openPagedOn(f, wfs, o)
}

// buildPagedOn builds a paged index over an open file and WAL
// filesystem (nil = no WAL). The single deferred cleanup replaces the
// per-step f.Close() ladders: any error return closes whatever was
// opened so far, success hands ownership to the returned index.
func buildPagedOn(points []Point, f pagedFile, wfs wal.FS, o buildOptions) (px *PagedIndex, err error) {
	var log *wal.Log
	defer func() {
		if err != nil {
			if log != nil {
				log.Close()
			}
			f.Close()
		}
	}()
	pageCache, nodeCache := o.resolveCaches()
	pages, err := pager.Create(f, pager.Options{CacheSize: pageCache, VolatileFreeList: wfs != nil})
	if err != nil {
		return nil, err
	}
	store := rstar.NewPagedStoreCache(pages, nodeCache)
	tree, err := rstar.New(store, rstar.Options{MaxEntries: o.maxEntries})
	if err != nil {
		return nil, err
	}
	if o.bulkLoad {
		err = tree.BulkLoad(points)
	} else {
		for _, p := range points {
			if err = tree.Insert(p); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	var dur *durability
	if wfs != nil {
		// A fresh log plus an initial checkpoint: the build is the
		// durable image, the log takes over from here.
		if log, err = wal.Create(wfs, walOptions(o)); err != nil {
			return nil, err
		}
		ckptLSN := uint64(0)
		if len(points) > 0 {
			// The bulk-built base never went through the log, so no record
			// replay can reconstruct it onto an empty replica. Burn LSN 1
			// on a no-op marker and checkpoint past it: history "from the
			// beginning" is then honestly compacted, and a replication
			// stream that would need it gets ErrCompacted — forcing the
			// snapshot bootstrap — instead of silently missing the base.
			var lsn uint64
			if lsn, err = log.Append(encodeMutation(recInsert, nil)); err != nil {
				return nil, err
			}
			if err = log.Sync(lsn); err != nil {
				return nil, err
			}
			ckptLSN = lsn
		}
		if err = pages.SyncData(); err != nil {
			return nil, err
		}
		if err = pages.WriteCheckpoint(ckptLSN); err != nil {
			return nil, err
		}
		if ckptLSN > 0 {
			if err = log.Checkpointed(ckptLSN); err != nil {
				return nil, err
			}
		}
		dur = newDurability(log, pages, o)
	} else if err = pages.Sync(); err != nil {
		return nil, err
	}
	return finishPaged(tree, points, o, pages, f, log, dur)
}

// openPagedOn attaches to an existing page file, recovers from the WAL
// when one is configured, and assembles the index. Cleanup mirrors
// buildPagedOn.
func openPagedOn(f pagedFile, wfs wal.FS, o buildOptions) (px *PagedIndex, err error) {
	var log *wal.Log
	defer func() {
		if err != nil {
			if log != nil {
				log.Close()
			}
			f.Close()
		}
	}()
	pageCache, nodeCache := o.resolveCaches()
	pages, err := pager.Open(f, pager.Options{CacheSize: pageCache, VolatileFreeList: wfs != nil})
	if err != nil {
		return nil, err
	}
	store := rstar.NewPagedStoreCache(pages, nodeCache)
	tree, err := rstar.Attach(store, rstar.Options{MaxEntries: o.maxEntries})
	if err != nil {
		return nil, err
	}
	var dur *durability
	if wfs != nil {
		if log, err = wal.Open(wfs, walOptions(o)); err != nil {
			return nil, err
		}
		dur = newDurability(log, pages, o)
		var replayed int
		var replica uint64
		tree, replayed, replica, err = replayWAL(tree, log, pages.CheckpointLSN(), pages.ReplicaLSN())
		if err != nil {
			return nil, fmt.Errorf("nwcq: wal recovery: %w", err)
		}
		dur.replayed = uint64(replayed)
		dur.replica.Store(replica)
		if replayed > 0 {
			// Fold the replay into a fresh checkpoint before any page
			// can be reallocated; until it lands, the previous durable
			// image stays intact so a crash here recovers again.
			if err = dur.checkpointLocked(tree); err != nil {
				return nil, err
			}
		}
		// The free list is volatile under WAL: reinstate it as the
		// complement of the recovered tree's reachable pages.
		if err = rebuildFreeSet(tree, pages); err != nil {
			return nil, err
		}
	}
	points, err := tree.All()
	if err != nil {
		return nil, err
	}
	return finishPaged(tree, points, o, pages, f, log, dur)
}

func finishPaged(tree *rstar.Tree, points []Point, o buildOptions, pages *pager.Store, f pagedFile, log *wal.Log, dur *durability) (*PagedIndex, error) {
	space := o.space
	if !o.spaceSet {
		space = geom.EmptyRect()
		for _, p := range points {
			space = space.ExtendPoint(p)
		}
		if space.IsEmpty() {
			space = geom.NewRect(0, 0, 1, 1)
		}
		if space.Width() <= 0 || space.Height() <= 0 {
			space = space.Buffer(1, 1)
		}
	}
	den, err := grid.New(space, o.gridCellSize, points)
	if err != nil {
		return nil, err
	}
	frozen, err := tree.Freeze()
	if err != nil {
		return nil, err
	}
	v, err := firstView(frozen, den)
	if err != nil {
		return nil, err
	}
	if log != nil {
		// The initial view reflects every log record (replay applied or
		// skipped each one), so it commits at the appended frontier.
		v.lsn = log.AppendedLSN()
	}
	frozen.ResetVisits()
	px := &PagedIndex{
		Index: Index{
			options: o,
			rec:     obs.NewRecorder(o.slowThreshold, ""), pageStats: pages.Stats,
			created: time.Now(),
			dur:     dur,
			subs:    sub.NewRegistry(o.subQueue),

			nwcCache:  qcache.New[Query, Result](o.resultCache),
			knwcCache: qcache.New[KQuery, KResult](o.resultCache),
		},
		pages: pages,
		file:  f,
		log:   log,
	}
	v.gen = px.vgen.Add(1)
	px.cur.Store(v)
	return px, nil
}

// PageStats returns the pager's operation counters, including buffer-pool
// effectiveness (hits, misses, evictions, coalesced cold reads) and
// fsync count.
func (p *PagedIndex) PageStats() PageStats {
	st := p.pages.Stats()
	return PageStats{
		Reads: st.Reads, Writes: st.Writes,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		Evictions: st.Evictions, Coalesced: st.Coalesced,
		Syncs: st.Syncs,
	}
}

// Sync makes the current state durable: with a WAL it runs a full
// checkpoint (fsync log, fsync pages, advance the header LSN, recycle
// segments); without one it flushes the header and fsyncs the file.
func (p *PagedIndex) Sync() error {
	if p.dur != nil {
		p.wmu.Lock()
		defer p.wmu.Unlock()
		return p.dur.checkpointLocked(p.cur.Load().tree)
	}
	return p.pages.Sync()
}

// Close checkpoints (WAL mode) or syncs, then releases the log and the
// file. It is idempotent: second and later calls return nil without
// touching anything. The index must not be used afterwards.
func (p *PagedIndex) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	var firstErr error
	if p.dur != nil {
		p.wmu.Lock()
		firstErr = p.dur.closeLocked(p.cur.Load().tree)
		p.wmu.Unlock()
		if err := p.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	} else if err := p.pages.Sync(); err != nil {
		firstErr = err
	}
	if err := p.file.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
