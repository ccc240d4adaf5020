package rstar

import (
	"fmt"

	"nwcq/internal/geom"
)

// Search performs a window (range) query: fn is called for every indexed
// point inside rect (closed boundaries). fn returning false stops the
// search early. Every node touched counts as one visit.
//
// Queries needing cancellation or per-query I/O accounting should use a
// Reader (Tree.Reader) instead; this method counts only the cumulative
// total.
func (t *Tree) Search(rect geom.Rect, fn func(p geom.Point) bool) error {
	return t.Reader(nil, nil).Search(rect, fn)
}

// SearchFrom runs a window query over the subtree rooted at id. See
// Reader.SearchFrom; this variant has no context and no per-query
// accounting.
func (t *Tree) SearchFrom(id NodeID, rect geom.Rect, fn func(p geom.Point) bool) (bool, error) {
	return t.Reader(nil, nil).SearchFrom(id, rect, fn)
}

// SearchCollect runs Search and returns the matching points.
func (t *Tree) SearchCollect(rect geom.Rect) ([]geom.Point, error) {
	return t.Reader(nil, nil).SearchCollect(rect)
}

// All returns every indexed point in unspecified order.
func (t *Tree) All() ([]geom.Point, error) {
	pts, _, err := t.Contents()
	return pts, err
}

// Contents walks the tree once, reading each node once, and returns its
// points and the ID of every node, root included. Recovery reinstates
// the page allocator's free set from the IDs, as the complement of what
// the tree reaches. Like every walk it refuses an unbalanced tree.
func (t *Tree) Contents() ([]geom.Point, []NodeID, error) {
	pts := make([]geom.Point, 0, t.count)
	var ids []NodeID
	err := t.walk(t.root, 0, func(n *Node) bool {
		ids = append(ids, n.ID)
		if n.Leaf {
			pts = append(pts, n.Points...)
		}
		return true
	})
	return pts, ids, err
}

// walk visits every node of the subtree of id, at depth, depth-first. fn
// returning false prunes the node's subtree. It checks the balanced-tree
// rule on every node it reads: a leaf sits at depth Height()−1 and
// nothing else does. So a page file whose leaf level holds an internal
// node, or whose upper levels hold a leaf, is refused by the walk that
// reopens it; the IWP build, which reads no leaf, relies on that.
func (t *Tree) walk(id NodeID, depth int, fn func(n *Node) bool) error {
	node, err := t.store.Get(id)
	if err != nil {
		return err
	}
	if node.Leaf != (depth == t.height-1) {
		return fmt.Errorf("rstar: node %d at depth %d does not fit a balanced tree of height %d", id, depth, t.height)
	}
	if !fn(node) || node.Leaf {
		return nil
	}
	for _, c := range node.Children {
		if err := t.walk(c, depth+1, fn); err != nil {
			return err
		}
	}
	return nil
}

// Walk exposes a read-only depth-first traversal of the tree's nodes,
// used by invariant checks; every node access is counted like any other
// visit.
func (t *Tree) Walk(fn func(n *Node) bool) error {
	return t.walk(t.root, 0, fn)
}
