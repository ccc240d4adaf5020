// Package nwcq implements Nearest Window Cluster (NWC) queries over
// two-dimensional point datasets, reproducing "Nearest Window Cluster
// Queries" (Huang et al., EDBT 2016).
//
// Given a query location q, a window of length l and width w, and an
// object count n, an NWC query returns the n objects that fit together
// inside some l × w axis-aligned window such that the distance from q to
// those objects is minimal over all such windows — "the nearest area
// with n choices clustered in it". The kNWC extension returns k such
// groups that pairwise share at most m objects.
//
// # Quick start
//
//	idx, err := nwcq.Build(points)            // index a []nwcq.Point
//	res, err := idx.NWC(nwcq.Query{
//	    X: 312.7, Y: 528.5, Length: 50, Width: 50, N: 8,
//	})
//	if res.Found {
//	    fmt.Println(res.Objects, res.Dist)
//	}
//
// The index is an R*-tree (fan-out 50, one node per 4096-byte page)
// augmented with a density grid and incremental-window-query pointers;
// queries run under one of the paper's seven optimisation schemes
// (SchemeNWCStar, the default, enables all four optimisations). Every
// query reports its I/O cost as the number of index nodes visited, the
// paper's performance metric.
//
// # Contexts and concurrency
//
// An index is safe for unrestricted concurrent use: queries, batches,
// Insert and Delete may all overlap freely. Queries pin an immutable,
// atomically published view of the index at entry and run lock-free
// against it, so each query observes one consistent version of the
// dataset; mutations serialise internally and publish the next version
// with a single pointer swap. NWCCtx and KNWCCtx accept a
// context.Context that is checked at node-visit granularity: a
// cancelled or expired context aborts the traversal with the context's
// error. Every query's Stats is accumulated on a carrier private to that
// query, so per-query numbers are exact at any parallelism; Index.Metrics
// aggregates latency and I/O distributions across all queries with
// lock-free atomics.
package nwcq

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nwcq/internal/core"
	"nwcq/internal/geom"
	"nwcq/internal/grid"
	"nwcq/internal/iwp"
	"nwcq/internal/metrics"
	"nwcq/internal/obs"
	"nwcq/internal/pool"
	"nwcq/internal/qcache"
	"nwcq/internal/rstar"
	"nwcq/internal/sub"
	"nwcq/internal/trace"
)

// The answer's types are defined once, where the engine has them, and
// travel from there to the caller and the wire uncopied (DESIGN.md §8,
// "One type per thing"); their field documentation is on the definitions.
type (
	// Point is a data object: a location (X, Y) and a caller-owned
	// identifier (ID).
	Point = geom.Point
	// Rect is an axis-aligned rectangle (MinX, MinY, MaxX, MaxY), reported
	// with query results.
	Rect = geom.Rect
	// Measure selects how the distance between the query location and a
	// group of n objects is evaluated (Section 2.1 of the paper).
	Measure = core.Measure
)

const (
	// MaxDistance is the distance to the farthest of the n objects
	// (the default).
	MaxDistance = core.MeasureMax
	// MinDistance is the distance to the nearest of the n objects.
	MinDistance = core.MeasureMin
	// AvgDistance is the mean distance to the n objects.
	AvgDistance = core.MeasureAvg
	// WindowDistance is the smallest distance from the query location
	// to any qualifying window containing the n objects.
	WindowDistance = core.MeasureWindow
)

// Scheme selects which of the paper's optimisation techniques run a
// query: SRR (search region reduction), DIP (distance-based pruning),
// DEP (density-based pruning) and IWP (incremental window query
// processing). It records the techniques switched off, so the zero value
// (SchemeDefault) is SchemeNWCStar with every optimisation on. To run the
// plain unoptimised algorithm, say SchemeNWC.
type Scheme = core.Scheme

// The paper's evaluation schemes (Table 3), plus the zero-value default.
const (
	// SchemeDefault is the zero Scheme, SchemeNWCStar.
	SchemeDefault Scheme = 0
	SchemeNWC            = core.SchemeNWC
	SchemeSRR            = core.SchemeSRR
	SchemeDIP            = core.SchemeDIP
	SchemeDEP            = core.SchemeDEP
	SchemeIWP            = core.SchemeIWP
	SchemeNWCPlus        = core.SchemeNWCPlus
	SchemeNWCStar        = core.SchemeNWCStar
)

// NewScheme builds the scheme that runs the optimisations given as true.
// NewScheme(false, false, false, false) is SchemeNWC.
func NewScheme(srr, dip, dep, iwp bool) Scheme { return core.NewScheme(srr, dip, dep, iwp) }

// Query is an NWC query.
type Query struct {
	// X, Y locate the query point q.
	X, Y float64
	// Length and Width are the window extents along x and y.
	Length, Width float64
	// N is the number of objects to retrieve.
	N int
	// Scheme selects the optimisations; the zero value (SchemeDefault)
	// means SchemeNWCStar (all optimisations on).
	Scheme Scheme
	// Measure selects the distance measure; default MaxDistance.
	Measure Measure
}

// KQuery is a kNWC query: K groups sharing at most M objects pairwise.
type KQuery struct {
	Query
	K int
	M int
}

// Stats reports the work one query performed: NodeVisits (index nodes
// read — the paper's I/O cost metric), ObjectsProcessed, ObjectsSkipped,
// NodesPruned, WindowQueries, CandidateWindows, QualifiedWindows and
// GridProbes. It is computed on a carrier private to the query, so
// concurrent queries report exact, independent numbers.
type Stats = core.Stats

// Group is one answer group: N objects clustered in an l × w window —
// Objects (ordered by ascending distance to the query point), Dist (the
// group's distance under the query's measure) and Window (a qualifying
// window containing the objects). A returned group is the caller's to
// read; the index may share its Objects with a result cache, so sort or
// overwrite a copy.
type Group = core.Group

// Result is the answer to an NWC query.
type Result struct {
	Group
	// Found is false when no window of the requested size holds N
	// objects.
	Found bool
	// Stats describes the query's work.
	Stats Stats
}

// KResult is the answer to a kNWC query, mirroring Result's shape.
type KResult struct {
	// Groups holds up to K groups ordered by ascending distance,
	// pairwise sharing at most M objects. Fewer than K groups are
	// returned when the dataset cannot supply K groups satisfying the
	// overlap constraint.
	Groups []Group
	// Found is false when no window of the requested size holds N
	// objects (Groups is then empty).
	Found bool
	// Stats describes the query's work.
	Stats Stats
}

// Index answers NWC and kNWC queries over a point set that may evolve
// online: queries (including batches) run lock-free against atomically
// published immutable views, while Insert and Delete build the next
// view off the query path and publish it with a single pointer swap
// (see view.go and mutate.go). All methods are safe for unrestricted
// concurrent use.
type Index struct {
	// cur is the current view — the one new queries pin. Superseded
	// views wait in retireq until their readers drain.
	cur atomic.Pointer[view]

	// wmu serialises mutations and retire-queue maintenance. Queries
	// never take it.
	wmu     sync.Mutex
	retireq []*view

	options buildOptions
	// rec is the query recorder shared in kind with the shard router
	// (internal/obs): per-kind histograms, scheme counts and the slow
	// log. created anchors the uptime reported by Metrics.
	rec     *obs.Recorder
	created time.Time
	// iwpRebuilds counts full IWP index rebuilds on the publish path: a
	// mutation that changed the tree's height. Every other mutation
	// patches the index and does not count.
	iwpRebuilds metrics.Counter
	// pageStats reports page I/O and node-cache counters for paged
	// indexes (nil for in-memory indexes); Metrics exposes them.
	pageStats func() PageStats
	// dur binds the write-ahead log of a paged index (nil for in-memory
	// indexes); see durable.go.
	dur *durability

	// vgen numbers published views (the initial view is generation 1);
	// nwcCache and knwcCache are the optional result caches keyed by
	// (query, generation), both nil when caching is off. See cache.go.
	vgen      atomic.Uint64
	nwcCache  *qcache.Cache[Query, Result]
	knwcCache *qcache.Cache[KQuery, KResult]

	// subs is the standing-query registry the publish path notifies
	// (subscribe.go, internal/sub). Always non-nil; with no subscribers
	// the publish hook costs one atomic load.
	subs *sub.Registry
}

// buildOptions is what the BuildOption constructors set. maxEntries and
// gridCellSize have no public option: every index runs the paper's
// fan-out of 50 (one node per 4096-byte page) and grid cells of side 25,
// and only tests set other values.
type buildOptions struct {
	maxEntries   int
	gridCellSize float64
	bulkLoad     bool
	space        geom.Rect
	spaceSet     bool
	// nodeCache applies to paged indexes only; the Set flag
	// distinguishes "explicitly zero" (disable) from "use the default".
	nodeCache    int
	nodeCacheSet bool
	// slowThreshold enables the slow-query log when positive.
	slowThreshold time.Duration
	// parallelism is the default batch worker-pool width (0 means
	// GOMAXPROCS); resultCache enables the query result cache when
	// positive (entries per query kind). See cache.go.
	parallelism int
	resultCache int
	// subQueue bounds each subscriber's pending-notification queue; it
	// has no public option, zero means sub.DefaultQueueCap (64), and only
	// a test shrinks it. viewRetention keeps that many superseded views
	// alive for as-of reads. See subscribe.go.
	subQueue      int
	viewRetention int
	// Write-ahead-log knobs; paged indexes only (see durable.go). The
	// two byte sizes have no public option: zero means the defaults (1
	// MiB each), and only the crash and replication tests set them, to
	// force rotations and checkpoints on tiny scripts.
	walSync            SyncPolicy
	walSyncInterval    time.Duration
	walSegmentBytes    int64
	walCheckpointBytes int64
}

// BuildOption configures Build, BuildPaged and OpenPaged.
type BuildOption func(*buildOptions)

// newBuildOptions applies opts over the defaults.
func newBuildOptions(opts []BuildOption) buildOptions {
	o := buildOptions{maxEntries: rstar.DefaultMaxEntries, gridCellSize: grid.DefaultCellSize}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithBulkLoad builds the tree by STR packing instead of one-by-one R*
// insertion — much faster for large static datasets.
func WithBulkLoad() BuildOption {
	return func(o *buildOptions) { o.bulkLoad = true }
}

// WithPageCacheSize does nothing.
//
// Deprecated: a paged index has one cache, of decoded nodes, sized by
// WithNodeCacheSize; the page buffer pool this option sized is gone.
func WithPageCacheSize(pages int) BuildOption {
	return func(*buildOptions) {}
}

// WithNodeCacheSize sets the decoded-node cache capacity, in tree
// nodes, of a paged index (default rstar.DefaultNodeCacheSize). It is
// the index's only cache: it keeps hot upper-tree nodes decoded between
// queries, and a miss reads the node's page from the file; zero or
// negative disables it. Node-visit accounting is identical either way.
// In-memory indexes ignore it.
func WithNodeCacheSize(nodes int) BuildOption {
	return func(o *buildOptions) {
		o.nodeCache = nodes
		o.nodeCacheSet = true
	}
}

// WithWALSync selects when a paged index fsyncs a mutation's WAL
// record: SyncAlways (the default) before the mutation returns,
// SyncInterval in the background (see WithWALSyncInterval), SyncNever
// only at rotation, checkpoint and Close. In-memory indexes ignore it.
func WithWALSync(p SyncPolicy) BuildOption {
	return func(o *buildOptions) { o.walSync = p }
}

// WithWALSyncInterval selects the SyncInterval policy with the given
// background flush cadence (default 100ms when d is not positive). A
// crash loses at most the last interval's acknowledged mutations,
// never index integrity.
func WithWALSyncInterval(d time.Duration) BuildOption {
	return func(o *buildOptions) {
		o.walSync = SyncInterval
		o.walSyncInterval = d
	}
}

// WithViewRetention keeps the last n superseded views alive after
// publication instead of reclaiming them as soon as readers drain,
// enabling temporal reads (NWCAsOf / KNWCAsOf, the server's as_of_lsn
// parameter) over that window. Default 0: only the current view is
// answerable.
func WithViewRetention(n int) BuildOption {
	return func(o *buildOptions) {
		if n < 0 {
			n = 0
		}
		o.viewRetention = n
	}
}

// WithSpace fixes the object space rectangle for the density grid.
// By default the space is the bounding box of the points, slightly
// padded. Build and BuildPaged refuse a point outside it.
func WithSpace(minX, minY, maxX, maxY float64) BuildOption {
	return func(o *buildOptions) {
		o.space = geom.NewRect(minX, minY, maxX, maxY)
		o.spaceSet = true
	}
}

// Build indexes points and prepares every substrate (R*-tree, density
// grid, IWP pointers) so any scheme can run. The point set can evolve
// afterwards through Insert and Delete, concurrently with queries. Build
// neither reorders nor retains points: the slice stays the caller's.
//
// Build, BuildPaged and OpenPaged assemble an index the same way and
// differ only in the node store under the tree and in the WAL step of a
// paged index: check refuses bad points, the tree is loaded (or, on
// reopen, attached) and start publishes the first view.
func Build(points []Point, opts ...BuildOption) (*Index, error) {
	o := newBuildOptions(opts)
	if err := o.check(points); err != nil {
		return nil, err
	}
	tree, err := rstar.Build(rstar.NewMemStore(), rstar.Options{MaxEntries: o.maxEntries}, points, o.bulkLoad)
	if err != nil {
		return nil, err
	}
	ix := &Index{}
	if err := ix.start(tree, points, o, 0); err != nil {
		return nil, err
	}
	return ix, nil
}

// check refuses a point no build may index: one with a non-finite
// coordinate or, under WithSpace, one outside its rectangle. Builds run
// it before they touch a tree or a file. A reopened index is not checked:
// its points passed a build or a mutation, and a mutation may grow the
// space.
//
// The points are checked in contiguous chunks of at least checkChunk,
// one per processor, side by side; the error returned is the first bad
// point's, as one pass in order finds it.
func (o buildOptions) check(points []Point) error {
	parts := max(1, min(runtime.GOMAXPROCS(0), len(points)/checkChunk))
	errs := make([]error, parts)
	_ = pool.Each(parts, parts, func(w int) error {
		first := w * len(points) / parts
		errs[w] = o.checkFrom(points[first:(w+1)*len(points)/parts], first)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkChunk is the fewest points check gives a goroutine.
const checkChunk = 1 << 14

// checkFrom is check on a chunk of the build's points that starts at
// point first, for the errors to name the points as check does.
func (o buildOptions) checkFrom(points []Point, first int) error {
	for i, p := range points {
		if err := validatePoint(p); err != nil {
			return fmt.Errorf("nwcq: point %d: %w", first+i, err)
		}
		if o.spaceSet && !o.space.ContainsPoint(p) {
			return fmt.Errorf("nwcq: point %d at (%g, %g) outside the configured space", first+i, p.X, p.Y)
		}
	}
	return nil
}

// start publishes the first view of a built or reopened index: the
// density grid of points over the WithSpace rectangle or their padded
// bounding box, the frozen tree (which holds the same points) and its
// IWP pointers, built in one walk of the tree's internal nodes. The grid
// reads the points alone, so it is counted on a goroutine of its own
// while the tree is frozen and the pointers built; its error is the one
// returned first. lsn is the WAL position the view reflects, zero
// without a log.
func (ix *Index) start(tree *rstar.Tree, points []Point, o buildOptions, lsn uint64) error {
	type counted struct {
		den *grid.Density
		err error
	}
	grids := make(chan counted, 1)
	// The goroutine takes the three fields it reads: capturing o would
	// move the options to the heap.
	go func(space geom.Rect, spaceSet bool, cellSize float64) {
		den, err := density(points, space, spaceSet, cellSize)
		grids <- counted{den, err}
	}(o.space, o.spaceSet, o.gridCellSize)
	frozen, err := tree.Freeze()
	var idx *iwp.Index
	if err == nil {
		idx, err = iwp.Build(frozen)
	}
	g := <-grids
	if g.err != nil {
		return g.err
	}
	if err != nil {
		return err
	}
	v, err := newView(frozen, g.den, idx)
	if err != nil {
		return err
	}
	v.lsn = lsn
	frozen.ResetVisits()
	ix.options = o
	ix.rec = obs.NewRecorder(o.slowThreshold, "")
	ix.created = time.Now()
	ix.nwcCache = qcache.New[Query, Result](o.resultCache)
	ix.knwcCache = qcache.New[KQuery, KResult](o.resultCache)
	ix.subs = sub.NewRegistry(o.subQueue)
	v.gen = ix.vgen.Add(1)
	ix.cur.Store(v)
	return nil
}

// density counts the grid of points, of cells cellSize wide, over space
// when spaceSet and over the points' padded bounding box otherwise.
func density(points []Point, space geom.Rect, spaceSet bool, cellSize float64) (*grid.Density, error) {
	if !spaceSet {
		var err error
		if space, err = geom.Bounds(points); err != nil {
			return nil, fmt.Errorf("nwcq: %w", err)
		}
	}
	return grid.New(space, cellSize, points)
}

// Len returns the number of indexed points (in the current view; a
// concurrent mutation is reflected once published).
func (ix *Index) Len() int { return ix.cur.Load().tree.Len() }

// TreeHeight returns the R*-tree height in levels.
func (ix *Index) TreeHeight() int { return ix.cur.Load().tree.Height() }

// Extent returns the bounding rectangle of the indexed points in the
// current view, the empty rectangle when there are none. It is the
// tree's root MBR, which the IWP index holds in memory, so it reads no
// node; every MBR is tight, so it equals the fold of Rect.ExtendPoint
// over the points bit for bit.
func (ix *Index) Extent() Rect { return ix.cur.Load().iwp.MBR() }

// StorageOverheadBytes reports the extra storage of the DEP density
// grid and the IWP pointers, using the paper's accounting (two bytes
// per grid cell, four bytes per pointer), for the current view.
func (ix *Index) StorageOverheadBytes() (gridBytes, iwpBytes int) {
	v := ix.cur.Load()
	return v.grid.StorageBytes(), v.iwp.StorageBytes()
}

// NWC answers an NWC query with no cancellation; it is shorthand for
// NWCCtx with a background context.
func (ix *Index) NWC(q Query) (Result, error) {
	return ix.NWCCtx(context.Background(), q)
}

// NWCCtx answers an NWC query under ctx. The context is checked at
// node-visit granularity: once it is cancelled or past its deadline the
// traversal aborts and the context's error is returned. The query's
// Stats is computed in isolation, exact under any concurrency.
func (ix *Index) NWCCtx(ctx context.Context, q Query) (Result, error) {
	return execute(ctx, ix, &nwcKind, q, exec{})
}

// nwcOnView answers q against one pinned view — the evaluator under
// execute (live, explained and temporal as-of queries) and under
// subscription re-evaluations. The caller owns the pin and has
// validated q.
func (ix *Index) nwcOnView(ctx context.Context, v *view, q Query, rec *trace.Recorder) (Result, error) {
	res, st, err := v.eng.NWC(ctx, core.Query{
		Q: Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N,
	}, q.Scheme, q.Measure, core.Exec{Rec: rec, Bound: rstar.BoundFromContext(ctx)})
	if err != nil {
		return Result{Stats: st}, err
	}
	return Result{Group: res.Group, Found: res.Found, Stats: st}, nil
}

// KNWCCtx answers a kNWC query under ctx, returning a KResult that
// mirrors NWC's single-result shape: up to K groups ordered by
// ascending distance, pairwise sharing at most M objects, plus the
// query's isolated Stats. Context semantics match NWCCtx.
func (ix *Index) KNWCCtx(ctx context.Context, q KQuery) (KResult, error) {
	return execute(ctx, ix, &knwcKind, q, exec{})
}

// knwcOnView is the kNWC form of nwcOnView.
func (ix *Index) knwcOnView(ctx context.Context, v *view, q KQuery, rec *trace.Recorder) (KResult, error) {
	groups, st, err := v.eng.KNWC(ctx, core.KNWCQuery{
		Query: core.Query{Q: Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N},
		K:     q.K, M: q.M,
	}, q.Scheme, q.Measure, core.Exec{Rec: rec})
	if err != nil {
		return KResult{Stats: st}, err
	}
	return KResult{Groups: groups, Found: len(groups) > 0, Stats: st}, nil
}

// KNWC answers a kNWC query, returning a KResult with up to K groups
// ordered by ascending distance, pairwise sharing at most M objects.
// It is KNWCCtx without a context.
func (ix *Index) KNWC(q KQuery) (KResult, error) {
	return ix.KNWCCtx(context.Background(), q)
}

// Window runs a plain window (range) query, returning the points inside
// the rectangle. Inverted rectangles (min above max on either axis) and
// non-finite bounds are rejected.
func (ix *Index) Window(minX, minY, maxX, maxY float64) ([]Point, error) {
	start := time.Now()
	pts, err := ix.window(context.Background(), minX, minY, maxX, maxY)
	ix.rec.Observe(obs.KindWindow, start, err)
	return pts, err
}

func (ix *Index) window(ctx context.Context, minX, minY, maxX, maxY float64) ([]Point, error) {
	if err := validateWindowRect(minX, minY, maxX, maxY); err != nil {
		return nil, err
	}
	v := ix.acquire()
	defer v.release()
	return v.tree.Reader(ctx, nil).SearchCollect(geom.NewRect(minX, minY, maxX, maxY))
}

// Nearest returns the k indexed points nearest to (x, y) in ascending
// distance order.
func (ix *Index) Nearest(x, y float64, k int) ([]Point, error) {
	start := time.Now()
	pts, err := ix.nearest(context.Background(), x, y, k)
	ix.rec.Observe(obs.KindNearest, start, err)
	return pts, err
}

func (ix *Index) nearest(ctx context.Context, x, y float64, k int) ([]Point, error) {
	if err := validateNearest(x, y, k); err != nil {
		return nil, err
	}
	v := ix.acquire()
	defer v.release()
	return v.tree.Reader(ctx, nil).NearestK(Point{X: x, Y: y}, k)
}

// ResetIOStats zeroes the index-wide cumulative node-visit counter
// (per-query counts in Stats are independent and unaffected). The
// counter is shared by every view, so the reset covers queries on any
// version.
func (ix *Index) ResetIOStats() { ix.cur.Load().tree.ResetVisits() }

// IOStats returns the cumulative node visits since the index was built
// or ResetIOStats was called. The counter is atomic and exact under
// concurrent queries; the nodes a mutation reads add to it too.
func (ix *Index) IOStats() uint64 { return ix.cur.Load().tree.Visits() }
