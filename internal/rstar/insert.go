package rstar

import (
	"cmp"
	"math"
	"slices"

	"nwcq/internal/geom"
)

// entry is a level-generic tree entry used by insertion and reinsertion:
// either a data point (leaf level) or a child reference with its MBR.
type entry struct {
	rect  geom.Rect
	child NodeID // InvalidNode for point entries
	point geom.Point
}

func pointEntry(p geom.Point) entry {
	return entry{rect: geom.RectAround(p), point: p}
}

func childEntry(rect geom.Rect, id NodeID) entry {
	return entry{rect: rect, child: id}
}

// Insert adds point p to the tree using the R*-tree insertion algorithm
// with forced reinsertion.
func (t *Tree) Insert(p geom.Point) error {
	if t.frozen {
		return ErrImmutableTree
	}
	// Forced reinsertion is permitted once per level per top-level
	// insertion (the R*-tree OverflowTreatment rule).
	t.reinsertedAtLevel = make([]bool, t.height+1)
	if err := t.insertEntry(pointEntry(p), 0); err != nil {
		return err
	}
	t.count++
	return t.persistRoot()
}

// insertEntry places e at the given level (0 = leaf level, counting up
// toward the root).
func (t *Tree) insertEntry(e entry, level int) error {
	path, err := t.chooseSubtree(e.rect, level)
	if err != nil {
		return err
	}
	node := path[len(path)-1].node
	if node.Leaf {
		node.Points = append(node.Points, e.point)
	} else {
		node.Rects = append(node.Rects, e.rect)
		node.Children = append(node.Children, e.child)
	}
	if err := t.store.Put(node); err != nil {
		return err
	}
	return t.adjustPath(path, level)
}

// pathItem records one step of a root-to-target descent: the node and the
// index of the child taken within it (meaningless for the last item).
type pathItem struct {
	node     *Node
	childIdx int
}

// chooseSubtree descends from the root to the node at the target level
// using the R*-tree ChooseSubtree criteria and returns the full path.
func (t *Tree) chooseSubtree(r geom.Rect, level int) ([]pathItem, error) {
	node, err := t.store.Get(t.root)
	if err != nil {
		return nil, err
	}
	path := []pathItem{{node: node}}
	// The node's level counted from the leaves.
	nodeLevel := t.height - 1
	for nodeLevel > level {
		var idx int
		if nodeLevel == level+1 && level == 0 {
			// Children are leaves: minimise overlap enlargement.
			idx = chooseLeastOverlapEnlargement(node, r)
		} else {
			idx = chooseLeastAreaEnlargement(node, r)
		}
		path[len(path)-1].childIdx = idx
		child, err := t.store.Get(node.Children[idx])
		if err != nil {
			return nil, err
		}
		node = child
		path = append(path, pathItem{node: node})
		nodeLevel--
	}
	return path, nil
}

// chooseLeastOverlapEnlargement picks the child whose MBR needs the least
// overlap enlargement to include r, breaking ties by area enlargement and
// then by area (the R*-tree leaf-level rule).
func chooseLeastOverlapEnlargement(node *Node, r geom.Rect) int {
	best := -1
	bestOverlap, bestEnlarge, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, cr := range node.Rects {
		grown := cr.Union(r)
		var overlapDelta float64
		for j, other := range node.Rects {
			if j == i {
				continue
			}
			overlapDelta += grown.OverlapArea(other) - cr.OverlapArea(other)
		}
		enlarge := grown.Area() - cr.Area()
		area := cr.Area()
		if overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
			(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
		}
	}
	return best
}

// chooseLeastAreaEnlargement picks the child whose MBR needs the least
// area enlargement to include r, breaking ties by smaller area.
func chooseLeastAreaEnlargement(node *Node, r geom.Rect) int {
	best := -1
	bestEnlarge, bestArea := math.Inf(1), math.Inf(1)
	for i, cr := range node.Rects {
		enlarge := cr.Enlargement(r)
		area := cr.Area()
		if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return best
}

// adjustPath handles overflow at the tail of path (a node at the given
// level) and propagates MBR updates and splits toward the root.
func (t *Tree) adjustPath(path []pathItem, level int) error {
	for i := len(path) - 1; i >= 0; i-- {
		node := path[i].node
		nodeLevel := level + (len(path) - 1 - i)
		var splitEntry *entry
		if node.Len() > t.opts.MaxEntries {
			isRoot := i == 0
			if !isRoot && !t.reinsertedAtLevel[nodeLevel] {
				t.reinsertedAtLevel[nodeLevel] = true
				return t.forceReinsert(path, i, nodeLevel)
			}
			newEntry, err := t.splitNode(node)
			if err != nil {
				return err
			}
			splitEntry = &newEntry
		}
		if i == 0 {
			if splitEntry != nil {
				return t.growRoot(node, *splitEntry)
			}
			return t.store.Put(node)
		}
		parent := path[i-1].node
		parent.Rects[path[i-1].childIdx] = node.MBR()
		if splitEntry != nil {
			parent.Rects = append(parent.Rects, splitEntry.rect)
			parent.Children = append(parent.Children, splitEntry.child)
		}
		if err := t.store.Put(parent); err != nil {
			return err
		}
	}
	return nil
}

// growRoot installs a new root above the old one after a root split.
func (t *Tree) growRoot(oldRoot *Node, extra entry) error {
	newRoot := &Node{
		Rects:    []geom.Rect{oldRoot.MBR(), extra.rect},
		Children: []NodeID{oldRoot.ID, extra.child},
	}
	if err := t.store.Alloc(newRoot); err != nil {
		return err
	}
	t.root = newRoot.ID
	t.height++
	// Grow the per-level reinsertion ledger to match.
	t.reinsertedAtLevel = append(t.reinsertedAtLevel, true)
	return t.persistRoot()
}

// forceReinsert implements the R*-tree forced-reinsertion heuristic: the
// 30% of the overflowing node's entries farthest from its MBR center are
// removed and reinserted at the same level, tending to improve the
// node's shape instead of splitting immediately.
func (t *Tree) forceReinsert(path []pathItem, idx, nodeLevel int) error {
	node := path[idx].node
	entries := nodeEntries(node)
	center := node.MBR().Center()
	slices.SortStableFunc(entries, func(a, b entry) int {
		return cmp.Compare(b.rect.Center().Dist2(center), a.rect.Center().Dist2(center))
	})
	reinsertCount := (t.opts.MaxEntries + 1) * 3 / 10
	if reinsertCount < 1 {
		reinsertCount = 1
	}
	evicted := make([]entry, reinsertCount)
	copy(evicted, entries[:reinsertCount])
	setNodeEntries(node, entries[reinsertCount:])
	if err := t.store.Put(node); err != nil {
		return err
	}
	// Tighten ancestor MBRs before reinserting.
	for i := idx - 1; i >= 0; i-- {
		parent := path[i].node
		parent.Rects[path[i].childIdx] = path[i+1].node.MBR()
		if err := t.store.Put(parent); err != nil {
			return err
		}
	}
	// Reinsert farthest-first (the variant the R*-tree paper found best).
	for _, e := range evicted {
		if err := t.insertEntry(e, nodeLevel); err != nil {
			return err
		}
	}
	return nil
}

// splitNode splits an overflowing node in place using the R* topological
// split and returns the entry for the newly created sibling.
func (t *Tree) splitNode(node *Node) (entry, error) {
	entries := nodeEntries(node)
	left, right := rstarSplit(entries, t.opts.MinEntries)
	setNodeEntries(node, left)
	if err := t.store.Put(node); err != nil {
		return entry{}, err
	}
	sibling := &Node{Leaf: node.Leaf}
	setNodeEntries(sibling, right)
	if err := t.store.Alloc(sibling); err != nil {
		return entry{}, err
	}
	return childEntry(sibling.MBR(), sibling.ID), nil
}

func nodeEntries(node *Node) []entry {
	if node.Leaf {
		out := make([]entry, len(node.Points))
		for i, p := range node.Points {
			out[i] = pointEntry(p)
		}
		return out
	}
	out := make([]entry, len(node.Children))
	for i := range node.Children {
		out[i] = childEntry(node.Rects[i], node.Children[i])
	}
	return out
}

func setNodeEntries(node *Node, entries []entry) {
	if node.Leaf {
		node.Points = node.Points[:0]
		for _, e := range entries {
			node.Points = append(node.Points, e.point)
		}
		node.Rects = nil
		node.Children = nil
		return
	}
	node.Rects = node.Rects[:0]
	node.Children = node.Children[:0]
	for _, e := range entries {
		node.Rects = append(node.Rects, e.rect)
		node.Children = append(node.Children, e.child)
	}
	node.Points = nil
}

// rstarSplit distributes entries into two groups using the R*-tree split:
// choose the axis with the minimum total margin over all legal
// distributions, then the distribution with minimum overlap (ties: min
// total area).
func rstarSplit(entries []entry, minEntries int) (left, right []entry) {
	axis := chooseSplitAxis(entries, minEntries)
	sortEntriesByAxis(entries, axis)
	splitIdx := chooseSplitIndex(entries, minEntries)
	left = make([]entry, splitIdx)
	copy(left, entries[:splitIdx])
	right = make([]entry, len(entries)-splitIdx)
	copy(right, entries[splitIdx:])
	return left, right
}

// axis identifiers for split selection: sort key is (min, max) along the
// axis.
const (
	axisX = iota
	axisY
)

func sortEntriesByAxis(entries []entry, axis int) {
	slices.SortStableFunc(entries, func(a, b entry) int {
		ra, rb := a.rect, b.rect
		if axis == axisX {
			return cmp.Or(cmp.Compare(ra.MinX, rb.MinX), cmp.Compare(ra.MaxX, rb.MaxX))
		}
		return cmp.Or(cmp.Compare(ra.MinY, rb.MinY), cmp.Compare(ra.MaxY, rb.MaxY))
	})
}

func chooseSplitAxis(entries []entry, minEntries int) int {
	bestAxis, bestMargin := axisX, math.Inf(1)
	scratch := make([]entry, len(entries))
	for _, axis := range []int{axisX, axisY} {
		copy(scratch, entries)
		sortEntriesByAxis(scratch, axis)
		margin := 0.0
		forEachDistribution(scratch, minEntries, func(l, r geom.Rect) {
			margin += l.Margin() + r.Margin()
		})
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}
	return bestAxis
}

// chooseSplitIndex assumes entries are sorted along the chosen axis and
// returns the boundary index of the best distribution.
func chooseSplitIndex(entries []entry, minEntries int) int {
	bestIdx := minEntries
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	idx := minEntries
	forEachDistribution(entries, minEntries, func(l, r geom.Rect) {
		overlap := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestIdx, bestOverlap, bestArea = idx, overlap, area
		}
		idx++
	})
	return bestIdx
}

// forEachDistribution calls fn with the group MBRs of every legal split
// boundary (left group sizes minEntries .. len-minEntries) of the sorted
// entries. Prefix/suffix MBRs are precomputed so the scan is linear.
func forEachDistribution(entries []entry, minEntries int, fn func(left, right geom.Rect)) {
	n := len(entries)
	prefix := make([]geom.Rect, n+1)
	prefix[0] = geom.EmptyRect()
	for i, e := range entries {
		prefix[i+1] = prefix[i].Union(e.rect)
	}
	suffix := make([]geom.Rect, n+1)
	suffix[n] = geom.EmptyRect()
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1].Union(entries[i].rect)
	}
	for k := minEntries; k <= n-minEntries; k++ {
		fn(prefix[k], suffix[k])
	}
}
