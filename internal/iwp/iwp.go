// Package iwp implements the paper's incremental window query processing
// (IWP, Section 3.3.4): an R*-tree augmentation that lets the window
// queries issued by the NWC algorithm start from intermediate nodes
// instead of the root, cutting the I/O of repeatedly descending from the
// top of the tree.
//
// Two pointer families are attached to the tree:
//
//   - Backward pointers: each leaf s holds r pointers following the
//     Exponential-Index spacing — bp₁ points to s itself, bpᵢ (1<i<r)
//     points to the ancestor of s at depth h−2^(i−2), and bp_r points to
//     the root, where h is the leaf depth and r = ⌈log₂ h⌉ + 2. Each
//     pointer carries the MBR of its target.
//
//   - Overlapping pointers: every node targeted by some backward pointer
//     (except the root) holds pointers to the other nodes at its depth
//     whose MBRs overlap it. Same-depth subtrees partition the data, so
//     consulting the overlapping nodes restores completeness when a
//     window query starts below the root.
//
// A window query for rectangle rect issued while processing an object
// stored in leaf s then proceeds (Algorithm 3): pick the smallest i with
// rect ⊆ mbrᵢᵇ, and run traditional window queries from bpᵢ's target and
// from every overlapping node of that target whose MBR intersects rect.
//
// The paper defines the augmentation over a static tree. Here the tree
// changes one copy-on-write commit at a time, and the Index follows it:
// Build constructs it once, Apply derives the next version from the
// nodes a commit wrote and retired. An Index value is immutable; the
// versions share every chunk of records a commit left untouched, so a
// reader pinned to an old tree snapshot keeps the matching index for as
// long as it likes. A backward pointer is not stored per leaf — a copy
// of the root's ID and MBR in every leaf would go stale with every
// commit — but resolved at query time by climbing parent links: the
// tree is balanced, so which ancestors the spacing strategy selects is a
// function of depth alone.
package iwp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// Pointer references a tree node together with a copy of its MBR, so
// that consulting the pointer costs no node access.
type Pointer struct {
	Node rstar.NodeID
	MBR  geom.Rect
}

// Strategy selects how backward pointers are spaced along the
// root-to-leaf path. The paper uses the exponential spacing; the other
// strategies exist for ablation: denser pointers find lower starting
// nodes but cost more storage, sparser ones the reverse.
type Strategy int

const (
	// Exponential is the paper's spacing (depths h, h−1, h−2, h−4, …,
	// 0): r = ⌈log₂ h⌉ + 2 pointers per leaf.
	Exponential Strategy = iota
	// Full keeps a pointer to every ancestor: h + 1 pointers per leaf,
	// the lowest possible starting nodes, the highest storage.
	Full
	// Minimal keeps only the leaf itself and the root: window queries
	// start at the leaf when the rectangle fits inside it and at the
	// root otherwise.
	Minimal
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Exponential:
		return "exponential"
	case Full:
		return "full"
	case Minimal:
		return "minimal"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// node is the index's record of one tree node. A node's ID changes
// whenever its content does (shadow allocation), so for the lifetime of
// an ID only parent can change, and only when the parent is rewritten.
type node struct {
	parent rstar.NodeID // InvalidNode for the root
	level  int32        // depth + 1; 0 marks a slot with no node
	mbr    geom.Rect
	// overlap lists the other nodes at this depth whose MBRs intersect
	// mbr, kept at the strategy's depths only. Versions share the backing
	// array: a list is replaced, never modified in place.
	overlap []Pointer
}

// Records live in a chunked array indexed by NodeID, in the idiom of
// rstar's versioned MemStore: deriving a version copies the directory
// and the chunks it writes, nothing else. A commit that rewrites one
// root-to-leaf path writes a few hundred records — the written nodes'
// children all take a new parent link — scattered over the ID space, so
// the chunks are small: 16 records, 1 KiB. On a 200k-point tree that
// halves the patch's time and garbage against 64-record chunks (21 µs
// against 41 µs per mutation), and the directory is still only one
// pointer per 16 nodes.
const (
	chunkShift = 4
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

type chunk [chunkSize]node

// Index holds the IWP augmentation of one R*-tree snapshot. It is
// immutable and safe for concurrent readers; Apply derives the index of
// the next snapshot without touching this one.
type Index struct {
	tree     *rstar.Tree
	rootID   rstar.NodeID
	strategy Strategy
	height   int
	// targeted[d] reports whether nodes at depth d are backward-pointer
	// targets under the strategy.
	targeted []bool
	chunks   []*chunk

	numLeaves  int
	numOverlap int
}

// targetedDepths applies the spacing strategy to a tree whose leaves sit
// at leafDepth: the leaf depth itself and the root always, for
// Exponential the depths h−1, h−2, h−4, … between them, for Full all.
func targetedDepths(strategy Strategy, leafDepth int) []bool {
	t := make([]bool, leafDepth+1)
	t[0], t[leafDepth] = true, true
	for step := 1; leafDepth-step > 0; step++ {
		if strategy == Full || (strategy == Exponential && step&(step-1) == 0) {
			t[leafDepth-step] = true
		}
	}
	return t
}

// node returns the record of id, nil if the index knows no such node.
func (ix *Index) node(id rstar.NodeID) *node {
	ci := int(id >> chunkShift)
	if ci >= len(ix.chunks) || ix.chunks[ci] == nil {
		return nil
	}
	if n := &ix.chunks[ci][id&chunkMask]; n.level != 0 {
		return n
	}
	return nil
}

// builder writes the records of an Index under construction. Chunks the
// directory still shares with base, the version being derived from, are
// copied before their first write.
type builder struct {
	*Index
	base []*chunk
}

// edit returns the writable slot of id.
func (b *builder) edit(id rstar.NodeID) *node {
	ci := int(id >> chunkShift)
	for ci >= len(b.chunks) {
		b.chunks = append(b.chunks, nil)
	}
	c := b.chunks[ci]
	switch {
	case c == nil:
		c = new(chunk)
	case ci < len(b.base) && c == b.base[ci]:
		cp := *c
		c = &cp
	}
	b.chunks[ci] = c
	return &c[id&chunkMask]
}

// link appends p to the overlap list of id.
func (b *builder) link(id rstar.NodeID, p Pointer) error {
	n := b.node(id)
	if n == nil {
		return fmt.Errorf("iwp: overlapping node %d unknown to the index", id)
	}
	b.edit(id).overlap = append(slices.Clip(n.overlap), p)
	b.numOverlap++
	return nil
}

// unlink removes gone from the overlap list of id.
func (b *builder) unlink(id, gone rstar.NodeID) error {
	n := b.node(id)
	if n == nil {
		return fmt.Errorf("iwp: overlapping node %d unknown to the index", id)
	}
	i := slices.IndexFunc(n.overlap, func(p Pointer) bool { return p.Node == gone })
	if i < 0 {
		return fmt.Errorf("iwp: node %d does not list overlapping node %d", id, gone)
	}
	b.edit(id).overlap = slices.Delete(slices.Clone(n.overlap), i, i+1)
	b.numOverlap--
	return nil
}

// Build constructs the augmentation with the paper's exponential
// backward-pointer spacing.
func Build(tree *rstar.Tree) (*Index, error) {
	return BuildWithStrategy(tree, Exponential)
}

// BuildWithStrategy walks the tree once and constructs the node records
// and the overlapping pointer sets under the given spacing strategy. It
// reads every internal node and no leaf: a leaf's record is its ID and
// the MBR in its parent's entry, both known one level up, and the tree
// is balanced (rstar's walks refuse one that is not), so the children
// of a node at depth height−2 are the leaves. It is the bootstrap — a
// new or reopened index, a commit that changed the tree's height — and
// the oracle Apply is tested against, not the way a commit is followed.
// The walk's node accesses are build-time cost and are not part of
// query I/O; callers typically ResetVisits afterwards.
func BuildWithStrategy(tree *rstar.Tree, strategy Strategy) (*Index, error) {
	if strategy < Exponential || strategy > Minimal {
		return nil, fmt.Errorf("iwp: unknown strategy %d", int(strategy))
	}
	ix := &Index{
		tree:     tree,
		rootID:   tree.Root(),
		strategy: strategy,
		height:   tree.Height(),
		targeted: targetedDepths(strategy, tree.Height()-1),
	}
	b := builder{Index: ix}

	// One pass: every node's record and the per-depth node lists. A
	// child's MBR is taken from its parent's entry, which the tree keeps
	// equal to the child's own (rstar.CheckInvariants, rule 1) — the same
	// source Apply has.
	leafDepth := ix.height - 1
	byDepth := make([][]Pointer, ix.height)
	record := func(id rstar.NodeID, mbr geom.Rect, parent rstar.NodeID, depth int) {
		*b.edit(id) = node{parent: parent, level: int32(depth + 1), mbr: mbr}
		byDepth[depth] = append(byDepth[depth], Pointer{Node: id, MBR: mbr})
		if depth == leafDepth {
			ix.numLeaves++
		}
	}
	var descend func(n *rstar.Node, depth int) error
	descend = func(n *rstar.Node, depth int) error {
		if n.Leaf != (depth == leafDepth) {
			return fmt.Errorf("iwp: node %d at depth %d does not fit a balanced tree of height %d", n.ID, depth, ix.height)
		}
		for i, c := range n.Children {
			record(c, n.Rects[i], n.ID, depth+1)
			if depth+1 == leafDepth {
				continue
			}
			child, err := tree.Node(c)
			if err != nil {
				return err
			}
			if err := descend(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	root, err := tree.Node(ix.rootID)
	if err != nil {
		return nil, err
	}
	record(root.ID, root.MBR(), rstar.InvalidNode, 0)
	if err := descend(root, 0); err != nil {
		return nil, err
	}

	// Overlapping pointers for every node at a targeted depth, via a
	// per-depth plane sweep along x. The root has no peers.
	for depth, nodes := range byDepth {
		if depth == 0 || !ix.targeted[depth] {
			continue
		}
		b.linkOverlaps(nodes)
	}
	return ix, nil
}

// linkOverlaps gives every node of nodes, one depth's, the list of the
// others whose MBRs intersect its own. Sorted by MinX, a node can only
// meet the nodes after it up to the first whose MinX passes its MaxX, so
// one sweep to the right from each node finds every intersecting pair
// once, O(N log N + K) for K pairs, and the pair is recorded on both
// nodes. A list holds the intersecting nodes before its own in the sort,
// nearest first, then those after it.
func (b *builder) linkOverlaps(nodes []Pointer) {
	slices.SortFunc(nodes, func(p, q Pointer) int { return cmp.Compare(p.MBR.MinX, q.MBR.MinX) })
	// Sweeping from the right end makes the pairs (i, j), i < j, come out
	// with i descending and, for one i, j ascending: the order each list
	// wants its two halves in.
	var pairs [][2]int32
	before := make([]int32, len(nodes))
	after := make([]int32, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i].MBR
		for j := i + 1; j < len(nodes) && nodes[j].MBR.MinX <= n.MaxX; j++ {
			if nodes[j].MBR.Intersects(n) {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
				after[i]++
				before[j]++
			}
		}
	}
	if len(pairs) == 0 {
		return
	}
	// One backing array; before[i] and after[i] become the next free
	// slots of node i's two halves.
	all := make([]Pointer, 2*len(pairs))
	start := int32(0)
	for i := range nodes {
		n := before[i] + after[i]
		if n > 0 {
			b.edit(nodes[i].Node).overlap = all[start : start+n : start+n]
		}
		before[i], after[i] = start, start+before[i]
		start += n
	}
	for _, p := range pairs {
		i, j := p[0], p[1]
		all[after[i]], all[before[j]] = nodes[j], nodes[i]
		after[i]++
		before[j]++
	}
	b.numOverlap += len(all)
}

// Apply derives the index of newTree, the snapshot an rstar.WriteBatch
// commit produced from this index's tree, from the commit's delta. The
// result equals BuildWithStrategy(newTree, ix.Strategy()) — same record
// per node, same overlap sets — at a cost proportional to the nodes the
// commit wrote times the fan-out, reading only the few unwritten nodes
// whose MBRs guide the search for a written node's new peers. ix itself
// is unchanged and stays valid for readers of the old snapshot.
//
// Three facts about a commit make the patch exact. A node whose content
// changed has a new ID, so an ID that survives keeps its MBR; with the
// height unchanged it keeps its depth too, and only its parent link can
// move — and then its new parent was written. The written nodes hang
// together from the new root (rstar.Delta), so their depths follow from
// one top-down pass over them. And whether a depth keeps overlap lists
// depends on the depth alone, so "p lists q" and "q lists p" always hold
// together: the pairs a commit breaks are exactly those with a retired
// node, all found in the retired nodes' own lists, and the pairs it
// makes are exactly those with a written node, found by descending from
// the new root through the entries whose MBRs intersect it.
//
// A commit that changed the tree's height moves every node to another
// depth and with it the set of targeted nodes; Apply then falls back to
// a full build and reports rebuilt.
func (ix *Index) Apply(newTree *rstar.Tree, d rstar.Delta) (next *Index, rebuilt bool, err error) {
	if newTree.Height() != ix.height {
		next, err = BuildWithStrategy(newTree, ix.strategy)
		return next, true, err
	}
	if len(d.Written) == 0 && len(d.Retired) == 0 {
		return ix, false, nil // an empty commit returns the snapshot it started from
	}
	nx := *ix
	nx.tree, nx.rootID = newTree, newTree.Root()
	nx.chunks = append([]*chunk(nil), ix.chunks...)
	b := builder{Index: &nx, base: ix.chunks}

	// Retired first: a store may hand a retired ID out again, and the
	// written node must win.
	for _, id := range d.Retired {
		n := b.node(id)
		if n == nil {
			return nil, false, fmt.Errorf("iwp: retired node %d unknown to the index", id)
		}
		gone := *n // unlinking may copy the chunk n points into
		for _, p := range gone.overlap {
			if err := b.unlink(p.Node, id); err != nil {
				return nil, false, err
			}
		}
		b.numOverlap -= len(gone.overlap)
		if int(gone.level) == b.height {
			b.numLeaves--
		}
		*b.edit(id) = node{}
	}

	// Written nodes, top-down from the root, each placing its children:
	// a written child gets a fresh record, an unwritten one keeps its
	// own and moves its parent link.
	written := make(map[rstar.NodeID]*rstar.Node, len(d.Written))
	for _, w := range d.Written {
		written[w.ID] = w
	}
	root := written[nx.rootID]
	if root == nil {
		return nil, false, fmt.Errorf("iwp: commit did not write the root %d", nx.rootID)
	}
	*b.edit(root.ID) = node{level: 1, mbr: root.MBR()}
	placed := make([]*rstar.Node, 1, len(d.Written))
	placed[0] = root
	for i := 0; i < len(placed); i++ {
		w := placed[i]
		level := b.node(w.ID).level
		if w.Leaf != (int(level) == b.height) {
			return nil, false, fmt.Errorf("iwp: written node %d at depth %d does not fit a balanced tree of height %d", w.ID, level-1, b.height)
		}
		if w.Leaf {
			b.numLeaves++
			continue
		}
		for j, c := range w.Children {
			rec := b.edit(c)
			if child := written[c]; child != nil {
				*rec = node{parent: w.ID, level: level + 1, mbr: w.Rects[j]}
				placed = append(placed, child)
			} else if rec.level == level+1 && rec.mbr == w.Rects[j] {
				rec.parent = w.ID
			} else {
				return nil, false, fmt.Errorf("iwp: unwritten child %d of node %d is not the node the index knows", c, w.ID)
			}
		}
	}
	if len(placed) != len(d.Written) {
		return nil, false, errors.New("iwp: written nodes do not hang together from the root")
	}

	// Overlap lists of the written nodes, linked both ways. A written
	// peer is not linked here: its own turn does that.
	for _, w := range placed[1:] {
		rec := b.node(w.ID)
		if !b.targeted[rec.level-1] {
			continue
		}
		self := Pointer{Node: w.ID, MBR: rec.mbr}
		peers, err := b.peers(root, 1, int(rec.level)-1, self, written, nil)
		if err != nil {
			return nil, false, err
		}
		for _, p := range peers {
			if written[p.Node] == nil {
				if err := b.link(p.Node, self); err != nil {
					return nil, false, err
				}
			}
		}
		if len(peers) > 0 {
			b.edit(w.ID).overlap = peers
			b.numOverlap += len(peers)
		}
	}
	return &nx, false, nil
}

// peers appends to out the nodes at depth target, other than self, whose
// MBRs intersect self's, descending from n (whose children sit at
// childDepth) through intersecting entries only. Written nodes are read
// from the commit's delta, the rest from the tree.
func (b *builder) peers(n *rstar.Node, childDepth, target int, self Pointer, written map[rstar.NodeID]*rstar.Node, out []Pointer) ([]Pointer, error) {
	for i, r := range n.Rects {
		if !r.Intersects(self.MBR) {
			continue
		}
		c := n.Children[i]
		if childDepth == target {
			if c != self.Node {
				out = append(out, Pointer{Node: c, MBR: r})
			}
			continue
		}
		child := written[c]
		if child == nil {
			var err error
			if child, err = b.tree.Node(c); err != nil {
				return nil, err
			}
		}
		var err error
		if out, err = b.peers(child, childDepth+1, target, self, written, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MBR returns the bounding rectangle of the tree's points, the empty
// rectangle when it holds none: the root's MBR as the index records it,
// with no node read.
func (ix *Index) MBR() geom.Rect { return ix.node(ix.rootID).mbr }

// Strategy returns the spacing strategy this index was built with.
func (ix *Index) Strategy() Strategy { return ix.strategy }

// BackwardPointers resolves the backward pointers of a leaf, ordered
// from the leaf itself to the root (bp₁ … bp_r), nil when leaf is not a
// leaf the index knows. Queries climb the same parent links without
// materialising the list; this form serves tests and diagnostics.
func (ix *Index) BackwardPointers(leaf rstar.NodeID) []Pointer {
	n := ix.node(leaf)
	if n == nil || int(n.level) != ix.height {
		return nil
	}
	var out []Pointer
	for id := leaf; n != nil; id, n = n.parent, ix.node(n.parent) {
		if ix.targeted[n.level-1] {
			out = append(out, Pointer{Node: id, MBR: n.mbr})
		}
	}
	return out
}

// OverlapPointers returns the same-depth overlapping nodes recorded for
// a backward-pointer target. The slice is shared and must not be
// modified.
func (ix *Index) OverlapPointers(id rstar.NodeID) []Pointer {
	if n := ix.node(id); n != nil {
		return n.overlap
	}
	return nil
}

// NumBackward returns the number of backward pointers the paper's
// layout stores: one per targeted depth in every leaf.
func (ix *Index) NumBackward() int {
	perLeaf := 0
	for _, t := range ix.targeted {
		if t {
			perLeaf++
		}
	}
	return ix.numLeaves * perLeaf
}

// NumOverlap returns the total number of overlapping pointers stored.
func (ix *Index) NumOverlap() int { return ix.numOverlap }

// StorageBytes reports the pointer storage overhead using the paper's
// 4-bytes-per-pointer accounting (Section 5.2) over the paper's layout
// — r backward pointers in every leaf plus the overlap lists — not the
// footprint of this package's records.
func (ix *Index) StorageBytes() int { return (ix.NumBackward() + ix.numOverlap) * 4 }

// WindowQuery runs Algorithm 3 through a tree Reader: a window query
// for rect on behalf of an object stored in leaf, starting from the
// lowest backward-pointer target whose MBR covers rect (plus that
// target's overlapping nodes intersecting rect). fn is invoked once per
// matching point; returning false stops the query. Node accesses are
// counted on the reader's per-query counter and the tree's cumulative
// counter, and the reader's context cancels the query at node-visit
// granularity. r must read the snapshot this index was built or patched
// for; a leaf the index does not know is reported as an error.
func (ix *Index) WindowQuery(r rstar.Reader, leaf rstar.NodeID, rect geom.Rect, fn func(geom.Point) bool) error {
	if rect.IsEmpty() {
		return nil
	}
	rec := r.Recorder() // nil when tracing is off; every use is nil-safe
	n := ix.node(leaf)
	if n == nil || int(n.level) != ix.height {
		return fmt.Errorf("iwp: leaf %d unknown to the index (stale index?)", leaf)
	}
	// The smallest i with rect ⊆ mbrᵢᵇ: climb from the leaf, stopping at
	// the first targeted ancestor that covers rect, or at the root. When
	// not even the root MBR covers rect (search regions may stick out of
	// the data space) searching from the root alone is still complete.
	start := leaf
	for n.parent != rstar.InvalidNode && !(ix.targeted[n.level-1] && n.mbr.ContainsRect(rect)) {
		start = n.parent
		if n = ix.node(start); n == nil {
			return fmt.Errorf("iwp: ancestor %d of leaf %d unknown to the index (stale index?)", start, leaf)
		}
	}
	if n.parent == rstar.InvalidNode {
		rec.Count(trace.CtrIWPRootStarts, 1)
		_, err := r.SearchFrom(start, rect, fn)
		return err
	}
	rec.Count(trace.CtrIWPJumpStarts, 1)
	if done, err := r.SearchFrom(start, rect, fn); err != nil || !done {
		return err
	}
	for _, ov := range n.overlap {
		if !ov.MBR.Intersects(rect) {
			continue
		}
		rec.Count(trace.CtrIWPOverlapScans, 1)
		if done, err := r.SearchFrom(ov.Node, rect, fn); err != nil || !done {
			return err
		}
	}
	return nil
}

// WindowCollect runs WindowQuery with a plain (uncounted, uncancelled)
// reader and returns the matching points.
func (ix *Index) WindowCollect(leaf rstar.NodeID, rect geom.Rect) ([]geom.Point, error) {
	var out []geom.Point
	err := ix.WindowQuery(ix.tree.Reader(nil, nil), leaf, rect, func(p geom.Point) bool {
		out = append(out, p)
		return true
	})
	return out, err
}
