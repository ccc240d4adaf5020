package rstar

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"nwcq/internal/geom"
)

// Build creates a tree on store holding pts: by STR packing when bulk is
// set, by one R* insertion per point (the paper's construction)
// otherwise.
//
// STR (sort-tile-recursive) packing (Leutenegger, Edgington and Lopez,
// ICDE 1997) is much faster than repeated insertion for large static
// datasets — the setting of the paper's experiments — at a small cost in
// node quality. Each node is packed to fillFactor × MaxEntries entries
// (fillFactor is fixed at 0.7, a customary STR choice that leaves room
// for later inserts), and each node is allocated full, so a paged store
// writes each of its pages once.
//
// Points are ordered by (X, Y, ID) across slabs and by (Y, X, ID) within
// one, so the tree — every node, its ID included — is a function of the
// point set, not of the order pts lists it in: coincident points fall to
// the leaves by ID. The coordinates must be finite.
func Build(store NodeStore, opts Options, pts []geom.Point, bulk bool) (*Tree, error) {
	if !bulk || len(pts) == 0 {
		t, err := New(store, opts)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if err := t.Insert(p); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{store: store, opts: opts}
	return t, t.pack(pts)
}

// pack STR-packs pts, which are not empty, into a tree on a store that
// holds none of its nodes.
func (t *Tree) pack(pts []geom.Point) error {
	capacity := t.opts.MaxEntries * 7 / 10
	if capacity < 2 {
		capacity = 2
	}

	// Level 0: tile points into leaves, ordered into a copy of pts that
	// the leaves then hold.
	sorted := make([]geom.Point, len(pts))
	strOrderFrom(sorted, pts, capacity)
	level, err := t.packLeaves(sorted, capacity)
	if err != nil {
		return err
	}
	t.height = 1

	// Upper levels: tile child entries until a single node remains, the
	// centres ordered in one scratch slice.
	scratch := make([]geom.Point, 2*len(level))
	for len(level) > 1 {
		level, err = t.packInternal(level, capacity, scratch)
		if err != nil {
			return err
		}
		t.height++
	}
	t.root = level[0].child
	t.count = len(pts)
	return t.persistRoot()
}

// packLeaves cuts pts, in STR order, into leaves of capacity points and
// returns the resulting child entries, one per leaf, in allocation order.
// Each leaf holds its run of pts, capped so that an append to it copies.
func (t *Tree) packLeaves(pts []geom.Point, capacity int) ([]entry, error) {
	out := make([]entry, 0, (len(pts)+capacity-1)/capacity)
	for ls := 0; ls < len(pts); ls += capacity {
		end := min(ls+capacity, len(pts))
		leaf := &Node{Leaf: true, Points: pts[ls:end:end]}
		if err := t.store.Alloc(leaf); err != nil {
			return nil, err
		}
		out = append(out, childEntry(leaf.MBR(), leaf.ID))
	}
	return out, nil
}

// packInternal tiles child entries into internal nodes one level up. The
// entries are ordered by their centres, each computed once, with the
// child's position in the level — its allocation order — breaking ties.
// The centres are written to scratch, which holds two per child, and
// ordered into it.
func (t *Tree) packInternal(children []entry, capacity int, scratch []geom.Point) ([]entry, error) {
	centres, ordered := scratch[:len(children)], scratch[len(children):2*len(children)]
	for i, e := range children {
		c := e.rect.Center()
		centres[i] = geom.Point{X: c.X, Y: c.Y, ID: uint64(i)}
	}
	strOrderFrom(ordered, centres, capacity)
	out := make([]entry, 0, (len(children)+capacity-1)/capacity)
	for ls := 0; ls < len(ordered); ls += capacity {
		run := ordered[ls:min(ls+capacity, len(ordered))]
		node := &Node{Rects: make([]geom.Rect, 0, len(run)), Children: make([]NodeID, 0, len(run))}
		for _, c := range run {
			e := children[c.ID]
			node.Rects = append(node.Rects, e.rect)
			node.Children = append(node.Children, e.child)
		}
		if err := t.store.Alloc(node); err != nil {
			return nil, err
		}
		out = append(out, childEntry(node.MBR(), node.ID))
	}
	return out, nil
}

// strOrder puts pts in STR order for nodes of capacity entries: ⌈√L⌉
// vertical slabs of ⌈√L⌉ × capacity points by (X, Y, ID) for L nodes,
// each slab ordered by (Y, X, ID), so that consecutive runs of capacity
// points are the nodes. A slab needs its members, not their x order, so
// the x phase only partitions at the slab boundaries. Both orders are
// total: the result depends neither on the algorithms nor on the input
// order, nor on how many processors share the work.
func strOrder(pts []geom.Point, capacity int) {
	o := newSlabOrder(pts, capacity)
	o.selectBoundaries(0, len(pts), 2*bits.Len(uint(len(pts))))
	o.wg.Wait()
	o.sortSlabs()
}

// strOrderFrom writes src into dst, of the same length, in the order
// strOrder gives it, and leaves src as it is. The x phase is one bucket
// pass from src into dst: a point's bucket ⌊(x − minX)·scale⌋ is
// monotone in x, so a bucket's points hold consecutive (X, Y, ID) ranks
// and only a bucket that straddles a slab boundary is partitioned. When
// the xs span no finite positive width it copies src and runs strOrder.
func strOrderFrom(dst, src []geom.Point, capacity int) {
	o := newSlabOrder(dst, capacity)
	if !o.scatter(src) {
		copy(dst, src)
		strOrder(dst, capacity)
		return
	}
	o.sortSlabs()
}

// slabOrder is one strOrder or strOrderFrom call. spare holds a token
// per processor beyond the caller's: a split hands a part to a new
// goroutine only when it can take one, so at most GOMAXPROCS goroutines
// work at a time.
type slabOrder struct {
	pts      []geom.Point
	slabSize int
	spare    chan struct{}
	wg       sync.WaitGroup
	// table is scatter's bucket table, shared out among the slab workers
	// once scatter is done with it.
	table []int
}

// newSlabOrder starts the STR order of pts for nodes of capacity
// entries, every processor spare.
func newSlabOrder(pts []geom.Point, capacity int) *slabOrder {
	nNodes := (len(pts) + capacity - 1) / capacity
	o := &slabOrder{pts: pts, slabSize: max(1, int(math.Ceil(math.Sqrt(float64(nNodes))))) * capacity}
	o.spare = make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	for range cap(o.spare) {
		o.spare <- struct{}{}
	}
	return o
}

// slabs is the number of slabs, the last one possibly short.
func (o *slabOrder) slabs() int { return (len(o.pts) + o.slabSize - 1) / o.slabSize }

// spareProc reports whether a spare processor was free, taking it: the
// caller starts a goroutine that calls done when it finishes.
func (o *slabOrder) spareProc() bool {
	select {
	case <-o.spare:
		o.wg.Add(1)
		return true
	default:
		return false
	}
}

// done returns the processor spareProc took.
func (o *slabOrder) done() {
	o.spare <- struct{}{}
	o.wg.Done()
}

// bucketsPerSlab is how many x buckets scatter makes per slab. A slab
// boundary falls inside at most one bucket, so on evenly spread xs about
// 1/bucketsPerSlab of the points are partitioned by comparison.
// BenchmarkBuild measures 4 to 64 alike (2-CPU Xeon): the comparisons
// left are a few percent of the build at any of them.
const bucketsPerSlab = 16

// scatter writes src into o.pts with every slab's members in its place,
// by one bucket pass on X followed by selectBoundaries inside the
// buckets that straddle a slab boundary. It reports false, having
// written nothing, when bucketPass cannot scale the xs.
func (o *slabOrder) scatter(src []geom.Point) bool {
	if len(src) == 0 {
		return true
	}
	o.table = make([]int, bucketsPerSlab*o.slabs())
	if !bucketPass(o.pts, src, false, o.table) {
		return false
	}
	lo := 0
	for _, hi := range o.table {
		o.selectBoundaries(lo, hi, 2*bits.Len(uint(hi-lo)))
		lo = hi
	}
	o.wg.Wait()
	return true
}

// bucketPass writes src into dst, of the same length and not empty,
// grouped by the bucket ⌊(c − min)·scale⌋ of each point's coordinate c
// (Y when byY is set, X otherwise), one bucket per element of ends.
// The bucket is monotone in c, so every point of a bucket precedes, in
// the coordinate's order, every point of the next. On return ends[b] is
// where bucket b ends in dst. It reports false, having written
// nothing, when the coordinates span no finite positive width or the
// buckets would be finer than a float64 can scale to.
func bucketPass(dst, src []geom.Point, byY bool, ends []int) bool {
	coord := func(p geom.Point) float64 {
		if byY {
			return p.Y
		}
		return p.X
	}
	lo, hi := coord(src[0]), coord(src[0])
	for _, p := range src[1:] {
		if c := coord(p); c < lo {
			lo = c
		} else if c > hi {
			hi = c
		}
	}
	nb := len(ends)
	width := hi - lo
	scale := float64(nb) / width
	if !(width > 0 && width <= math.MaxFloat64 && scale <= math.MaxFloat64) {
		return false
	}
	clear(ends)
	for _, p := range src {
		ends[min(int((coord(p)-lo)*scale), nb-1)]++
	}
	sum := 0
	for b, c := range ends {
		ends[b], sum = sum, sum+c
	}
	for _, p := range src {
		b := min(int((coord(p)-lo)*scale), nb-1)
		dst[ends[b]] = p
		ends[b]++
	}
	return true
}

// selectBoundaries takes pts[lo:hi], the points of ranks lo … hi−1 by
// (X, Y, ID) in some order, and moves every point whose rank is a slab
// boundary to that rank: a quicksort that leaves a part alone once no
// boundary falls inside it, O(n log S) for S slabs. A part reached
// through more than budget partitions is sorted instead, as in
// introsort, so bad pivots cost O(n log n) at worst.
func (o *slabOrder) selectBoundaries(lo, hi, budget int) {
	for (lo/o.slabSize+1)*o.slabSize < hi { // a boundary inside (lo, hi)
		a := o.pts[lo:hi]
		if len(a) <= 16 || budget == 0 {
			slices.SortFunc(a, cmpXY)
			return
		}
		budget--
		mid := lo + partitionXY(a) + 1
		if left, b := lo, budget; o.spareProc() {
			go func() {
				defer o.done()
				o.selectBoundaries(left, mid, b)
			}()
		} else {
			o.selectBoundaries(lo, mid, budget)
		}
		lo = mid
	}
}

// pointsPerBucket is how many points sortSlab puts in a y bucket on
// average. A 2,660-point uniform slab, BenchmarkBuild's, sorts as fast
// at 2 to 6 (2-CPU Xeon); at 5 the tables of two slab workers fit in the
// one scatter leaves behind, so they allocate nothing more.
const pointsPerBucket = 5

// sortSlabs sorts every slab by (Y, X, ID). One worker per processor
// takes the slabs in turn, each with one slab-sized buffer and its own
// part of o.table, which serve every slab it sorts.
func (o *slabOrder) sortSlabs() {
	nSlabs := o.slabs()
	if nSlabs == 0 {
		return
	}
	size := min(o.slabSize, len(o.pts))
	per := max(1, size/pointsPerBucket)
	workers := 1 + min(cap(o.spare), nSlabs-1)
	if len(o.table) < workers*per {
		o.table = make([]int, workers*per)
	}
	var next atomic.Int64
	work := func(ends []int) {
		var buf []geom.Point
		for s := int(next.Add(1) - 1); s < nSlabs; s = int(next.Add(1) - 1) {
			slab := o.pts[s*o.slabSize : min((s+1)*o.slabSize, len(o.pts))]
			if buf == nil {
				buf = make([]geom.Point, size)
			}
			sortSlab(slab, buf, ends)
		}
	}
	for w := 1; w < workers; w++ {
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			work(o.table[w*per : (w+1)*per])
		}()
	}
	work(o.table[:per])
	o.wg.Wait()
}

// shortBucket is the longest bucket sortSlab orders by insertion; a
// longer one, which only a skewed slab makes, goes to slices.SortFunc.
const shortBucket = 12

// sortSlab sorts a by (Y, X, ID): one bucket pass on Y into buf, about
// pointsPerBucket points a bucket, then cmpYX inside each bucket as it
// is copied back. A slab whose ys bucketPass cannot scale is sorted by
// cmpYX alone. buf holds at least len(a) points and ends at least
// len(a)/pointsPerBucket counts.
func sortSlab(a, buf []geom.Point, ends []int) {
	if len(a) < 2 {
		return
	}
	ends = ends[:max(1, len(a)/pointsPerBucket)]
	if !bucketPass(buf[:len(a)], a, true, ends) {
		slices.SortFunc(a, cmpYX)
		return
	}
	lo := 0
	for _, hi := range ends {
		b := a[lo:hi]
		copy(b, buf[lo:hi])
		if len(b) > shortBucket {
			slices.SortFunc(b, cmpYX)
		} else {
			insertionSortYX(b)
		}
		lo = hi
	}
}

// insertionSortYX sorts a short run by cmpYX.
func insertionSortYX(a []geom.Point) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i
		for ; j > 0 && cmpYX(p, a[j-1]) < 0; j-- {
			a[j] = a[j-1]
		}
		a[j] = p
	}
}

// partitionXY reorders a, len(a) ≥ 3, around the median of its first,
// middle and last points by cmpXY (Hoare's scheme) and returns j with
// a[:j+1] ≤ pivot ≤ a[j+1:], both parts non-empty.
func partitionXY(a []geom.Point) int {
	mid, hi := len(a)/2, len(a)-1
	if cmpXY(a[mid], a[0]) < 0 {
		a[mid], a[0] = a[0], a[mid]
	}
	if cmpXY(a[hi], a[mid]) < 0 {
		a[hi], a[mid] = a[mid], a[hi]
		if cmpXY(a[mid], a[0]) < 0 {
			a[mid], a[0] = a[0], a[mid]
		}
	}
	a[0], a[mid] = a[mid], a[0]
	p := a[0]
	i, j := -1, len(a)
	for {
		for j--; cmpXY(p, a[j]) < 0; j-- {
		}
		for i++; cmpXY(a[i], p) < 0; i++ {
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
	}
}

// cmpXY is the x phase's order: X, then Y, then ID.
func cmpXY(a, b geom.Point) int {
	switch {
	case a.X != b.X:
		return sign(a.X < b.X)
	case a.Y != b.Y:
		return sign(a.Y < b.Y)
	case a.ID != b.ID:
		return sign(a.ID < b.ID)
	}
	return 0
}

// cmpYX is a slab's order: Y, then X, then ID.
func cmpYX(a, b geom.Point) int {
	switch {
	case a.Y != b.Y:
		return sign(a.Y < b.Y)
	case a.X != b.X:
		return sign(a.X < b.X)
	case a.ID != b.ID:
		return sign(a.ID < b.ID)
	}
	return 0
}

// sign is the three-way result of two unequal values: -1 if the first
// is less.
func sign(less bool) int {
	if less {
		return -1
	}
	return 1
}
