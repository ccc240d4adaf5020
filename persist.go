package nwcq

import (
	"fmt"
	"os"
	"sync/atomic"

	"nwcq/internal/pager"
	"nwcq/internal/rstar"
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
// Mutations (Insert, Delete and the batch forms) are crash-safe: each
// is logged to a write-ahead log beside the index file (<path>.wal/)
// before its pages are published, and OpenPaged replays committed
// records after a crash. WithWALSync selects how eagerly records are
// fsynced. See durable.go and DESIGN.md §10.
//
// The density grid and IWP pointers are derived structures; they are
// rebuilt when the file is opened.
type PagedIndex struct {
	Index
	pages *pager.Store
	file  pagedFile
	log   *wal.Log
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
// mutations are WAL-protected. The points are checked before the file
// is touched. Close the index to release the file.
func BuildPaged(points []Point, path string, opts ...BuildOption) (*PagedIndex, error) {
	o := newBuildOptions(opts)
	if err := o.check(points); err != nil {
		return nil, err
	}
	f, wfs, err := openPagedFiles(path, os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	return buildPagedOn(points, f, wfs, o)
}

// OpenPaged reopens an index file written by BuildPaged, replaying any
// write-ahead log records past the last checkpoint (crash recovery).
// The tree is read from the file and the derived structures (density
// grid, IWP pointers) are rebuilt; opts apply to the reopened index.
func OpenPaged(path string, opts ...BuildOption) (*PagedIndex, error) {
	f, wfs, err := openPagedFiles(path, 0)
	if err != nil {
		return nil, err
	}
	return openPagedOn(f, wfs, newBuildOptions(opts))
}

// openPagedFiles opens the page file at path with the extra flags and
// the WAL directory beside it, creating the directory if needed.
func openPagedFiles(path string, flag int) (*os.File, wal.FS, error) {
	f, err := os.OpenFile(path, os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, nil, err
	}
	wfs, err := wal.NewDirFS(walDirFor(path))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, wfs, nil
}

// buildPagedOn builds a paged index over an open file and WAL
// filesystem. The deferred release closes whatever was opened when an
// error returns; success hands ownership to the returned index.
func buildPagedOn(points []Point, f pagedFile, wfs wal.FS, o buildOptions) (px *PagedIndex, err error) {
	px = &PagedIndex{file: f}
	defer px.releaseOnError(&err)
	pageCache, nodeCache := o.resolveCaches()
	if px.pages, err = pager.Create(f, pager.Options{CacheSize: pageCache}); err != nil {
		return nil, err
	}
	tree, err := rstar.Build(rstar.NewPagedStoreCache(px.pages, nodeCache), rstar.Options{MaxEntries: o.maxEntries}, points, o.bulkLoad)
	if err != nil {
		return nil, err
	}
	// A fresh log plus an initial checkpoint: the build is the durable
	// image, the log takes over from here.
	if px.log, err = wal.Create(wfs, walOptions(o)); err != nil {
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
		if ckptLSN, err = px.log.Append(encodeMutation(recInsert, nil)); err != nil {
			return nil, err
		}
		if err = px.log.Sync(ckptLSN); err != nil {
			return nil, err
		}
	}
	if err = px.pages.SyncData(); err != nil {
		return nil, err
	}
	if err = px.pages.WriteCheckpoint(ckptLSN); err != nil {
		return nil, err
	}
	if ckptLSN > 0 {
		if err = px.log.Checkpointed(ckptLSN); err != nil {
			return nil, err
		}
	}
	px.dur = newDurability(px.log, px.pages, o)
	if err = px.start(tree, points, o); err != nil {
		return nil, err
	}
	return px, nil
}

// openPagedOn attaches to an existing page file, recovers from the WAL
// and assembles the index. Cleanup mirrors buildPagedOn.
func openPagedOn(f pagedFile, wfs wal.FS, o buildOptions) (px *PagedIndex, err error) {
	px = &PagedIndex{file: f}
	defer px.releaseOnError(&err)
	pageCache, nodeCache := o.resolveCaches()
	if px.pages, err = pager.Open(f, pager.Options{CacheSize: pageCache}); err != nil {
		return nil, err
	}
	tree, err := rstar.Attach(rstar.NewPagedStoreCache(px.pages, nodeCache), rstar.Options{MaxEntries: o.maxEntries})
	if err != nil {
		return nil, err
	}
	if px.log, err = wal.Open(wfs, walOptions(o)); err != nil {
		return nil, err
	}
	px.dur = newDurability(px.log, px.pages, o)
	var replayed int
	var replica uint64
	tree, replayed, replica, err = replayWAL(tree, px.log, px.pages.CheckpointLSN(), px.pages.ReplicaLSN())
	if err != nil {
		return nil, fmt.Errorf("nwcq: wal recovery: %w", err)
	}
	px.dur.replayed = uint64(replayed)
	px.dur.replica.Store(replica)
	if replayed > 0 {
		// Fold the replay into a fresh checkpoint before any page can be
		// reallocated; until it lands, the previous durable image stays
		// intact so a crash here recovers again.
		if err = px.dur.checkpointLocked(tree); err != nil {
			return nil, err
		}
	}
	// One walk reads every page of the recovered tree once, refusing a
	// tree that is not balanced. The free list lives in memory only:
	// reinstate it as the complement of the pages the walk reached.
	points, reached, err := tree.Contents()
	if err != nil {
		return nil, err
	}
	rebuildFreeSet(reached, px.pages)
	if err = px.start(tree, points, o); err != nil {
		return nil, err
	}
	return px, nil
}

// start publishes the first view. The view reflects every log record
// (recovery applied or skipped each one), so it commits at the appended
// frontier.
func (p *PagedIndex) start(tree *rstar.Tree, points []Point, o buildOptions) error {
	p.pageStats = p.pages.Stats
	return p.Index.start(tree, points, o, p.log.AppendedLSN())
}

// releaseOnError closes the log and the file of an index whose
// assembly failed with *err.
func (p *PagedIndex) releaseOnError(err *error) {
	if *err == nil {
		return
	}
	if p.log != nil {
		p.log.Close()
	}
	p.file.Close()
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

// Sync makes the current state durable with a full checkpoint: fsync
// the log, fsync the pages, advance the header LSN, recycle segments.
func (p *PagedIndex) Sync() error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.dur.checkpointLocked(p.cur.Load().tree)
}

// Close checkpoints, then releases the log and the file. It is
// idempotent: second and later calls return nil without touching
// anything. The index must not be used afterwards.
func (p *PagedIndex) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	p.wmu.Lock()
	firstErr := p.dur.closeLocked(p.cur.Load().tree)
	p.wmu.Unlock()
	if err := p.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.file.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
