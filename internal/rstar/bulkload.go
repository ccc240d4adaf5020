package rstar

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"nwcq/internal/geom"
)

// Load fills the empty tree with pts: by BulkLoad when bulk is set, by
// one R* insertion per point (the paper's construction) otherwise.
func (t *Tree) Load(pts []geom.Point, bulk bool) error {
	if bulk {
		return t.BulkLoad(pts)
	}
	for _, p := range pts {
		if err := t.Insert(p); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad builds the tree from pts using sort-tile-recursive (STR)
// packing (Leutenegger, Edgington and Lopez, ICDE 1997). It is much
// faster than repeated insertion for large static datasets — the setting
// of the paper's experiments — at a small cost in node quality. The tree
// must be empty.
//
// Each node is packed to fillFactor × MaxEntries entries (fillFactor is
// fixed at 0.7, a customary STR choice that leaves room for later
// inserts).
//
// Points are ordered by (X, Y, ID) across slabs and by (Y, X, ID) within
// one, so the tree — every node, its ID included — is a function of the
// point set, not of the order pts lists it in: coincident points fall to
// the leaves by ID. The coordinates must be finite.
func (t *Tree) BulkLoad(pts []geom.Point) error {
	if t.frozen {
		return ErrImmutableTree
	}
	if t.count != 0 {
		return errors.New("rstar: BulkLoad requires an empty tree")
	}
	if len(pts) == 0 {
		return nil
	}
	capacity := t.opts.MaxEntries * 7 / 10
	if capacity < 2 {
		capacity = 2
	}

	// Free the placeholder empty root.
	if err := t.store.Free(t.root); err != nil {
		return err
	}

	// Level 0: tile points into leaves.
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	level, err := t.packLeaves(sorted, capacity)
	if err != nil {
		return err
	}
	t.height = 1

	// Upper levels: tile child entries until a single node remains.
	for len(level) > 1 {
		level, err = t.packInternal(level, capacity)
		if err != nil {
			return err
		}
		t.height++
	}
	t.root = level[0].child
	t.count = len(pts)
	return t.persistRoot()
}

// packLeaves slices the points STR-style and returns the resulting child
// entries, one per leaf, in allocation order.
func (t *Tree) packLeaves(pts []geom.Point, capacity int) ([]entry, error) {
	strOrder(pts, capacity)
	out := make([]entry, 0, (len(pts)+capacity-1)/capacity)
	for ls := 0; ls < len(pts); ls += capacity {
		leaf, err := t.store.Alloc(true)
		if err != nil {
			return nil, err
		}
		leaf.Points = append(leaf.Points, pts[ls:min(ls+capacity, len(pts))]...)
		if err := t.store.Put(leaf); err != nil {
			return nil, err
		}
		out = append(out, childEntry(leaf.MBR(), leaf.ID))
	}
	return out, nil
}

// packInternal tiles child entries into internal nodes one level up. The
// entries are ordered by their centres, each computed once, with the
// child's position in the level — its allocation order — breaking ties.
func (t *Tree) packInternal(children []entry, capacity int) ([]entry, error) {
	centres := make([]geom.Point, len(children))
	for i, e := range children {
		c := e.rect.Center()
		centres[i] = geom.Point{X: c.X, Y: c.Y, ID: uint64(i)}
	}
	strOrder(centres, capacity)
	out := make([]entry, 0, (len(children)+capacity-1)/capacity)
	for ls := 0; ls < len(centres); ls += capacity {
		node, err := t.store.Alloc(false)
		if err != nil {
			return nil, err
		}
		for _, c := range centres[ls:min(ls+capacity, len(centres))] {
			e := children[c.ID]
			node.Rects = append(node.Rects, e.rect)
			node.Children = append(node.Children, e.child)
		}
		if err := t.store.Put(node); err != nil {
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
	nNodes := (len(pts) + capacity - 1) / capacity
	o := slabOrder{pts: pts, slabSize: int(math.Ceil(math.Sqrt(float64(nNodes)))) * capacity}
	o.spare = make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	for range cap(o.spare) {
		o.spare <- struct{}{}
	}
	o.selectBoundaries(0, len(pts), 2*bits.Len(uint(len(pts))))
	o.wg.Wait()
	o.sortSlabs(0, (len(pts)+o.slabSize-1)/o.slabSize)
	o.wg.Wait()
}

// slabOrder is one strOrder call. spare holds a token per processor
// beyond the caller's: a split hands a part to a new goroutine only when
// it can take one, so at most GOMAXPROCS goroutines work at a time.
type slabOrder struct {
	pts      []geom.Point
	slabSize int
	spare    chan struct{}
	wg       sync.WaitGroup
}

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

// sortSlabs sorts slabs [s0, s1) by (Y, X, ID), halving the run and
// forking one half while a processor is spare.
func (o *slabOrder) sortSlabs(s0, s1 int) {
	for s1-s0 > 1 {
		sm := (s0 + s1) / 2
		if end := s1; o.spareProc() {
			go func() {
				defer o.done()
				o.sortSlabs(sm, end)
			}()
		} else {
			o.sortSlabs(sm, s1)
		}
		s1 = sm
	}
	slices.SortFunc(o.pts[s0*o.slabSize:min(s1*o.slabSize, len(o.pts))], cmpYX)
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
