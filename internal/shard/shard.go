// Package shard partitions the object space across N nwcq indexes and
// routes queries scatter-gather, lifting the paper's best-first MINDIST
// bound one level up: from R*-tree nodes to shard regions. The Sharded
// frontend satisfies the same Querier/Mutator interfaces as a single
// *nwcq.Index, so servers, CLIs and batch drivers switch backends
// without code changes.
//
// Partitioning is a gx × gy grid over the configured space (gx the
// largest divisor of Shards not above √Shards), each cell one shard.
// Points route to the cell containing them; points outside the space
// clamp to the nearest edge cell, and each shard's effective bounds
// grow (monotonically) to cover such outliers so MINDIST pruning stays
// sound. Queries hit the home shard (the cell containing q) first to
// seed a distance bound, visit the remaining shards in ascending
// MINDIST order pruning those the bound excludes, and finish with a
// border-fetch step that makes windows straddling shard boundaries
// exact (route.go). See DESIGN.md §11.
package shard

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nwcq"
	"nwcq/internal/geom"
	"nwcq/internal/obs"
	wpool "nwcq/internal/pool"
	"nwcq/internal/qcache"
)

// Options configures NewSharded and OpenSharded.
type Options struct {
	// Shards is the number of index shards (at least 1).
	Shards int
	// Space is the partitioned rectangle. The zero value derives it from
	// the build points' bounding box (padded), like nwcq.Build does.
	Space nwcq.Rect
	// Dir, when non-empty, makes each shard a paged, WAL-backed index
	// under Dir (shard-NNN.nwcq plus a manifest.json); empty keeps every
	// shard in memory. OpenSharded requires it.
	Dir string
	// Build options are forwarded verbatim to every shard's constructor,
	// so the page-cache, node-cache, WAL and slow-query knobs are
	// declared once and apply per shard. Do not pass nwcq.WithSpace here:
	// each shard derives its own (sub-)space from its points.
	Build []nwcq.BuildOption
	// Parallelism is the router's worker-pool width: how many shards
	// NewSharded and OpenSharded build or open at once, how many the
	// scatter phase (and the border fetch) queries concurrently, and the
	// default batch width. 0 means GOMAXPROCS; 1 forces the sequential
	// path. Adjustable at runtime with SetParallelism.
	Parallelism int
	// ResultCache, when positive, gives the router a single-flight query
	// result cache holding up to that many entries per query kind,
	// keyed by the full query plus the dataset generation (the sum of
	// the shards' view generations), so any published mutation on any
	// shard invalidates it with one integer compare. Do not also pass
	// nwcq.WithResultCache in Build: the router cache sits above the
	// shards, and per-shard caches under it would only duplicate
	// storage.
	ResultCache int
}

// Sharded owns N index shards and a scatter-gather router over them.
// It satisfies nwcq.Querier, nwcq.Mutator, nwcq.Introspector and
// nwcq.SlowLogger; all methods are safe for unrestricted concurrent
// use, with the same per-shard consistency the underlying indexes give
// (queries see atomically published views; cross-shard batches are
// atomic per shard, not across shards).
type Sharded struct {
	shards []*nwcq.Index
	// pageds holds the paged form of each shard in Dir mode (nil
	// entries in memory mode); Close and page-cache metrics use it.
	pageds []*nwcq.PagedIndex

	space   geom.Rect
	gx, gy  int
	cw, ch  float64     // a grid cell's width and height
	regions []geom.Rect // nominal grid cells, fixed at construction

	// bounds is the effective per-shard bounds: the nominal region
	// unioned with every out-of-region point routed to the shard. It
	// only ever grows, is read with one atomic load on the query path,
	// and is swapped copy-on-write under bmu by mutations.
	bounds atomic.Pointer[[]geom.Rect]
	bmu    sync.Mutex

	// par is the configured worker width for scatter, border fetch and
	// batches (0 = GOMAXPROCS). Runtime adjustable via SetParallelism;
	// read with one atomic load per routed query.
	par atomic.Int32
	// nwcCache and knwcCache are the router-level result caches; nil when
	// Options left them off.
	nwcCache  *qcache.Cache[nwcq.Query, nwcq.Result]
	knwcCache *qcache.Cache[nwcq.KQuery, nwcq.KResult]

	// Standing-query state (subscribe.go): open router subscriptions,
	// their ID source, and the router-level delivery counters.
	subActive     atomic.Int64
	subSeq        atomic.Uint64
	subDelivered  atomic.Uint64
	subEvalErrors atomic.Uint64
	subResyncs    atomic.Uint64

	created time.Time
	// rec is the query recorder — the same obs.Recorder a single index
	// holds; ctr is the routing activity only a router has.
	rec *obs.Recorder
	ctr *routerCounters
}

// SetParallelism adjusts the router's worker width at runtime (0
// restores the GOMAXPROCS default). In-flight queries keep the width
// they started with.
func (s *Sharded) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	s.par.Store(int32(n))
}

// Parallelism returns the resolved worker width (the configured value,
// or GOMAXPROCS when unset).
func (s *Sharded) Parallelism() int { return s.parallelism() }

func (s *Sharded) parallelism() int { return wpool.Workers(int(s.par.Load())) }

// scatterWorkers caps the worker width at the number of work items, so
// a single-shard deployment (or a one-shard fetch) automatically takes
// the sequential path with zero goroutine or locking overhead.
func (s *Sharded) scatterWorkers(n int) int {
	p := s.parallelism()
	if p > n {
		p = n
	}
	return p
}

// generation is the router's dataset version: the sum of the shards'
// view generations. Per-shard generations are monotone, so the sum is
// monotone and strictly increases on every published mutation anywhere
// — the result cache's invalidation signal. (A query concurrent with a
// publish may cache a result computed partly on the newer views under
// the older sum; that only ever serves *newer* data to callers of the
// older generation, never stale data to a query that began after the
// publish, which necessarily reads a larger sum.)
func (s *Sharded) generation() uint64 {
	var g uint64
	for _, ix := range s.shards {
		g += ix.ViewGeneration()
	}
	return g
}

// Interface conformance mirrors the single-index checks in nwcq.
var (
	_ nwcq.Querier      = (*Sharded)(nil)
	_ nwcq.Mutator      = (*Sharded)(nil)
	_ nwcq.Introspector = (*Sharded)(nil)
	_ nwcq.SlowLogger   = (*Sharded)(nil)
)

// splitGrid picks the gx × gy grid for n shards: gx is the largest
// divisor of n not above √n, so the cells stay as square as possible.
func splitGrid(n int) (gx, gy int) {
	gx = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			gx = d
		}
	}
	return gx, n / gx
}

// rectFrom normalises the configured rectangle, deriving the points'
// padded bounding box only when the zero value was given; that
// derivation refuses a point with a non-finite coordinate, and the
// routing pass refuses it either way.
func rectFrom(r nwcq.Rect, points []nwcq.Point) (geom.Rect, error) {
	if r != (nwcq.Rect{}) {
		return geom.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY), nil
	}
	bounds, err := geom.Bounds(points)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("shard: %w", err)
	}
	return bounds, nil
}

// newRouter builds the Sharded shell: partitioning, regions, initial
// bounds, worker width, result caches and router metrics. Shards are
// attached to the empty slots by the constructors, which then copy the
// shards' slow-query threshold (a Build option, the same on every
// shard) onto the router's recorder.
func newRouter(space geom.Rect, n int, opt Options) *Sharded {
	gx, gy := splitGrid(n)
	s := &Sharded{
		shards: make([]*nwcq.Index, n),
		pageds: make([]*nwcq.PagedIndex, n),
		space:  space, gx: gx, gy: gy,
		regions:   make([]geom.Rect, n),
		nwcCache:  qcache.New[nwcq.Query, nwcq.Result](opt.ResultCache),
		knwcCache: qcache.New[nwcq.KQuery, nwcq.KResult](opt.ResultCache),
		created:   time.Now(),
		rec:       obs.NewRecorder(0, "router"),
		ctr:       newRouterCounters(),
	}
	s.SetParallelism(opt.Parallelism)
	s.cw, s.ch = space.Width()/float64(gx), space.Height()/float64(gy)
	for i := 0; i < n; i++ {
		col, row := i%gx, i/gx
		minX := space.MinX + float64(col)*s.cw
		minY := space.MinY + float64(row)*s.ch
		maxX, maxY := minX+s.cw, minY+s.ch
		// Snap the outer edges exactly onto the space so floating-point
		// division never leaves a sliver uncovered.
		if col == gx-1 {
			maxX = space.MaxX
		}
		if row == gy-1 {
			maxY = space.MaxY
		}
		s.regions[i] = geom.NewRect(minX, minY, maxX, maxY)
	}
	b := make([]geom.Rect, n)
	copy(b, s.regions)
	s.bounds.Store(&b)
	return s
}

// shardFor routes a location to its shard: the grid cell containing it,
// with out-of-space locations clamped to the nearest edge cell.
func (s *Sharded) shardFor(x, y float64) int {
	col := int(math.Floor((x - s.space.MinX) / s.cw))
	row := int(math.Floor((y - s.space.MinY) / s.ch))
	if col < 0 {
		col = 0
	}
	if col >= s.gx {
		col = s.gx - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= s.gy {
		row = s.gy - 1
	}
	return row*s.gx + col
}

// shardBounds returns the current effective bounds slice (immutable;
// do not modify).
func (s *Sharded) shardBounds() []geom.Rect { return *s.bounds.Load() }

// extendBounds grows shard i's effective bounds to cover r, if needed.
// Extension is monotonic, so pruning against stale (smaller) bounds can
// only happen for points not yet visible to any query.
func (s *Sharded) extendBounds(i int, r geom.Rect) {
	if s.shardBounds()[i].ContainsRect(r) {
		return
	}
	s.bmu.Lock()
	defer s.bmu.Unlock()
	next := slices.Clone(s.shardBounds())
	next[i] = next[i].Union(r)
	s.bounds.Store(&next)
}

// finiteBox is the smallest rectangle covering pts' points with finite
// coordinates: a point with a non-finite one extends no bounds, because
// the shard refuses it before anything becomes visible.
func finiteBox(pts []nwcq.Point) geom.Rect {
	r := geom.EmptyRect()
	for _, p := range pts {
		if finite(p) {
			r = r.ExtendPoint(p)
		}
	}
	return r
}

// finite reports whether both of p's coordinates are finite (a NaN
// fails both comparisons).
func finite(p nwcq.Point) bool {
	return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
}

// partition splits points by destination shard, preserving input order
// within each shard, and returns each point's shard beside the parts.
// One pass routes every point, storing its shard, and counts each
// shard's points, so that the second pass fills parts allocated once, at
// their size. bad is the first point with a non-finite coordinate, -1
// when there is none: a build refuses it, a mutation leaves it to the
// shard it routes to.
func (s *Sharded) partition(points []nwcq.Point) (parts [][]nwcq.Point, dest []int32, bad int) {
	bad = -1
	dest = make([]int32, len(points))
	counts := make([]int, len(s.regions))
	for j, p := range points {
		if bad < 0 && !finite(p) {
			bad = j
		}
		i := s.shardFor(p.X, p.Y)
		dest[j] = int32(i)
		counts[i]++
	}
	parts = make([][]nwcq.Point, len(s.regions))
	for i, c := range counts {
		if c > 0 {
			parts[i] = make([]nwcq.Point, 0, c)
		}
	}
	for j, p := range points {
		parts[dest[j]] = append(parts[dest[j]], p)
	}
	return parts, dest, bad
}

// NewSharded partitions points across opt.Shards indexes and returns
// the scatter-gather frontend over them. With opt.Dir set the shards
// are paged, WAL-backed indexes under that directory (created if
// needed) with a manifest so OpenSharded can reopen them; otherwise
// everything lives in memory. A point with a non-finite coordinate is
// refused before the directory is touched. The shards are built side by
// side on the router's worker pool (Options.Parallelism wide), each the
// same at every width; the manifest is written only once every shard is
// built.
func NewSharded(points []nwcq.Point, opt Options) (*Sharded, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be at least 1, got %d", opt.Shards)
	}
	space, err := rectFrom(opt.Space, points)
	if err != nil {
		return nil, err
	}
	s := newRouter(space, opt.Shards, opt)
	parts, _, bad := s.partition(points)
	if bad >= 0 {
		return nil, fmt.Errorf("shard: point %d has non-finite coordinates", bad)
	}
	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	err = s.fill(func(i int) (*nwcq.PagedIndex, *nwcq.Index, error) {
		if opt.Dir == "" {
			ix, err := nwcq.Build(parts[i], opt.Build...)
			return nil, ix, err
		}
		px, err := nwcq.BuildPaged(parts[i], shardPath(opt.Dir, i), opt.Build...)
		if err != nil {
			return nil, nil, err
		}
		return px, &px.Index, nil
	})
	if err != nil {
		return nil, err
	}
	if opt.Dir != "" {
		if err := writeManifest(opt.Dir, s); err != nil {
			s.closeShards()
			return nil, err
		}
	}
	return s, nil
}

// OpenSharded reopens a sharded directory written by NewSharded,
// replaying each shard's write-ahead log (crash recovery happens per
// shard, independently). opt.Build is forwarded to every OpenPaged;
// opt.Shards and opt.Space are taken from the manifest.
func OpenSharded(dir string, opt Options) (*Sharded, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s := newRouter(geom.NewRect(m.Space.MinX, m.Space.MinY, m.Space.MaxX, m.Space.MaxY), m.Shards, opt)
	err = s.fill(func(i int) (*nwcq.PagedIndex, *nwcq.Index, error) {
		px, err := nwcq.OpenPaged(shardPath(dir, i), opt.Build...)
		if err != nil {
			return nil, nil, err
		}
		return px, &px.Index, nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// fill builds or opens every shard with open over the router's worker
// pool, one shard per claim, and grows each shard's effective bounds to
// cover its points' extent: outliers routed to edge cells live outside
// their nominal region, and pruning must keep covering them, after a
// reopen too. A shard open returns, error or not, is the router's to
// close. On an error fill closes every shard and returns the
// lowest-numbered shard's error: the pool claims shards in order, so
// every shard below a failed one has run, and the error is the one a
// sequential loop meets first, at every width.
func (s *Sharded) fill(open func(i int) (*nwcq.PagedIndex, *nwcq.Index, error)) error {
	errs := make([]error, len(s.shards))
	err := wpool.Each(len(s.shards), s.parallelism(), func(i int) error {
		px, ix, err := open(i)
		s.pageds[i], s.shards[i] = px, ix
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return errs[i]
		}
		s.extendBounds(i, ix.Extent())
		return nil
	})
	if err != nil {
		s.closeShards()
		return cmp.Or(errs...)
	}
	s.rec.SetSlowThreshold(s.shards[0].SlowQueryThreshold())
	return nil
}

// manifest is the sharded directory's layout record. It is a file format
// older than the wire names geom.Rect is tagged with, so its space keeps
// the MinX…MaxY keys through an untagged struct of its own (a conversion
// between the two ignores tags).
type manifest struct {
	Shards int          `json:"shards"`
	Space  manifestRect `json:"space"`
}

type manifestRect struct{ MinX, MinY, MaxX, MaxY float64 }

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.nwcq", i))
}

func writeManifest(dir string, s *Sharded) error {
	data, err := json.Marshal(manifest{Shards: len(s.regions), Space: manifestRect(s.space)})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// readManifest reads dir's manifest and checks its shard count against
// the shard files the directory holds, before the router allocates
// anything per shard: a hostile count fails here instead of sizing an
// allocation.
func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("shard: manifest: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return m, err
	}
	files := 0
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".nwcq") && !e.IsDir() {
			files++
		}
	}
	if m.Shards < 1 || m.Shards != files {
		return m, fmt.Errorf("shard: manifest declares %d shards, %s holds %d shard files", m.Shards, dir, files)
	}
	return m, nil
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// ShardRegions returns the nominal partition rectangles, in shard
// order.
func (s *Sharded) ShardRegions() []nwcq.Rect { return slices.Clone(s.regions) }

// Len returns the total number of indexed points across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, ix := range s.shards {
		n += ix.Len()
	}
	return n
}

// TreeHeight returns the tallest shard's R*-tree height.
func (s *Sharded) TreeHeight() int {
	h := 0
	for _, ix := range s.shards {
		if th := ix.TreeHeight(); th > h {
			h = th
		}
	}
	return h
}

// IOStats returns the cumulative node visits summed over all shards.
func (s *Sharded) IOStats() uint64 {
	var n uint64
	for _, ix := range s.shards {
		n += ix.IOStats()
	}
	return n
}

// ResetIOStats zeroes every shard's cumulative node-visit counter.
func (s *Sharded) ResetIOStats() {
	for _, ix := range s.shards {
		ix.ResetIOStats()
	}
}

// StorageOverheadBytes sums the shards' density-grid and IWP overheads.
func (s *Sharded) StorageOverheadBytes() (gridBytes, iwpBytes int) {
	for _, ix := range s.shards {
		g, w := ix.StorageOverheadBytes()
		gridBytes += g
		iwpBytes += w
	}
	return gridBytes, iwpBytes
}

// Close releases every shard (checkpointing WAL-backed ones); the
// first error wins but every shard is closed regardless.
func (s *Sharded) Close() error { return s.closeShards() }

func (s *Sharded) closeShards() error {
	var firstErr error
	for i := range s.shards {
		var err error
		if s.pageds[i] != nil {
			err = s.pageds[i].Close()
		} else if s.shards[i] != nil {
			err = s.shards[i].Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Insert routes the point to its shard by partition key: InsertBatch
// of one.
func (s *Sharded) Insert(p nwcq.Point) error { return s.InsertBatch([]nwcq.Point{p}) }

// InsertBatch routes points to their shards and inserts per shard
// atomically. Safe under full concurrency; bounds extension (for points
// outside a shard's region) is published before the points become
// visible to queries. Atomicity is per shard: a failure leaves earlier
// shards' sub-batches applied (each sub-batch itself is all-or-nothing).
func (s *Sharded) InsertBatch(pts []nwcq.Point) (err error) {
	start := time.Now()
	defer func() { s.rec.Observe(obs.KindInsert, start, err) }()
	parts, _, _ := s.partition(pts)
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		s.extendBounds(i, finiteBox(part))
		if err = s.shards[i].InsertBatch(part); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Delete routes the deletion to the point's shard and reports whether
// the point was found there: the first flag of DeleteBatch of one.
func (s *Sharded) Delete(p nwcq.Point) (bool, error) {
	founds, err := s.DeleteBatch([]nwcq.Point{p})
	return len(founds) > 0 && founds[0], err
}

// DeleteBatch routes deletions per shard, in shard order (each shard's
// sub-batch is atomic), and returns one found flag per input point, in
// input order.
func (s *Sharded) DeleteBatch(pts []nwcq.Point) (founds []bool, err error) {
	start := time.Now()
	defer func() { s.rec.Observe(obs.KindDelete, start, err) }()
	if len(pts) == 0 {
		return nil, nil
	}
	parts, dest, _ := s.partition(pts)
	flags := make([][]bool, len(parts))
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if flags[i], err = s.shards[i].DeleteBatch(part); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// partition keeps input order within a shard: hand each point the
	// next flag of its shard.
	founds = make([]bool, len(pts))
	for j, i := range dest {
		founds[j], flags[i] = flags[i][0], flags[i][1:]
	}
	return founds, nil
}
