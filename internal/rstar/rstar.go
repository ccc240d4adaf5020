// Package rstar implements a disk-oriented R*-tree over two-dimensional
// points — the spatial index the NWC algorithm runs on (Section 3.2 of
// the paper: "To facilitate efficient visits of data objects, we adopt
// R-tree to index the data objects"; Section 5 uses an R*-tree with page
// size 4096 and fan-out 50).
//
// The tree implements the R*-tree heuristics of Beckmann, Kriegel,
// Schneider and Seeger (SIGMOD 1990): ChooseSubtree with minimum overlap
// enlargement at the leaf level, margin-driven split-axis selection,
// overlap-driven split-index selection, and forced reinsertion. It also
// offers STR (sort-tile-recursive) bulk loading, deletion with
// condense-and-reinsert, window (range) queries, and the incremental
// best-first nearest-neighbour iterator of Hjaltason and Samet (TODS
// 1999) that drives the NWC algorithm's distance-ordered object visits.
//
// Nodes live behind the NodeStore interface. MemStore keeps nodes
// resident; PagedStore serialises each node onto one fixed-size page of
// an internal/pager Store. Either way every node access is counted, and
// that count — "the number of R*-tree nodes visited" — is the paper's
// performance metric.
package rstar

import (
	"errors"
	"fmt"

	"nwcq/internal/geom"
)

// NodeID identifies a node within a store. The zero value is invalid.
type NodeID uint32

// InvalidNode is the nil node reference.
const InvalidNode NodeID = 0

// DefaultMaxEntries matches the paper's fan-out of 50 entries per node.
const DefaultMaxEntries = 50

// Node is an R*-tree node. A leaf holds data points; an internal node
// holds child references with their MBRs, kept index-aligned in Rects
// and Children.
//
// Nodes are owned by the tree's NodeStore: read them via Tree.Node and
// treat them as immutable outside this package.
type Node struct {
	ID   NodeID
	Leaf bool
	// Rects holds, for internal nodes, the MBR of each child.
	Rects []geom.Rect
	// Children holds child node ids; internal nodes only.
	Children []NodeID
	// Points holds the data objects; leaf nodes only.
	Points []geom.Point
}

// Len returns the number of entries in the node.
func (n *Node) Len() int {
	if n.Leaf {
		return len(n.Points)
	}
	return len(n.Children)
}

// MBR returns the minimum bounding rectangle of the node's entries.
func (n *Node) MBR() geom.Rect {
	mbr := geom.EmptyRect()
	if n.Leaf {
		for _, p := range n.Points {
			mbr = mbr.ExtendPoint(p)
		}
		return mbr
	}
	for _, r := range n.Rects {
		mbr = mbr.Union(r)
	}
	return mbr
}

// NodeStore abstracts node persistence. Implementations count node
// accesses (Get) so the tree can report I/O in the paper's metric.
type NodeStore interface {
	// Alloc assigns the filled node n a fresh ID and persists it, so a
	// new node is written once.
	Alloc(n *Node) error
	// Get fetches a node and counts one visit.
	Get(id NodeID) (*Node, error)
	// Put persists a node after mutation.
	Put(n *Node) error
	// Free releases a node.
	Free(id NodeID) error
	// Root returns the persisted root reference, tree height (number of
	// levels; 1 = root is a leaf) and object count.
	Root() (NodeID, int, int)
	// SetRoot persists the root reference, height and object count.
	SetRoot(id NodeID, height, count int) error
	// Visits returns the number of Get calls since the last reset.
	Visits() uint64
	// ResetVisits zeroes the visit counter.
	ResetVisits()
}

// Options configures a Tree.
type Options struct {
	// MaxEntries is the node fan-out M; DefaultMaxEntries if zero.
	MaxEntries int
	// MinEntries is the underflow threshold m; 40% of MaxEntries if
	// zero, per the R*-tree paper's recommendation.
	MinEntries int
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
		if o.MinEntries < 1 {
			o.MinEntries = 1
		}
	}
	if o.MaxEntries < 4 {
		return o, fmt.Errorf("rstar: MaxEntries %d too small (minimum 4)", o.MaxEntries)
	}
	if o.MinEntries > o.MaxEntries/2 {
		return o, fmt.Errorf("rstar: MinEntries %d exceeds MaxEntries/2 = %d",
			o.MinEntries, o.MaxEntries/2)
	}
	return o, nil
}

// Tree is an R*-tree. It is not safe for concurrent mutation; concurrent
// read-only queries over a MemStore are safe.
type Tree struct {
	store NodeStore
	opts  Options

	root   NodeID
	height int // levels in the tree; 1 when the root is a leaf
	count  int // number of indexed points

	// reinsertedAtLevel tracks forced reinsertion per level within a
	// single insert, per the R*-tree OverflowTreatment rule.
	reinsertedAtLevel []bool

	// frozen marks an immutable snapshot (see Freeze in snapshot.go);
	// Insert and Delete refuse to run and changes go through
	// BeginWrite instead.
	frozen bool
}

// New creates an empty tree on store.
func New(store NodeStore, opts Options) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{store: store, opts: opts}
	root := &Node{Leaf: true}
	if err := store.Alloc(root); err != nil {
		return nil, err
	}
	t.root = root.ID
	t.height = 1
	return t, t.persistRoot()
}

// Attach opens a tree previously persisted in store (via its
// Root/SetRoot metadata).
func Attach(store NodeStore, opts Options) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	root, height, count := store.Root()
	if root == InvalidNode || height < 1 {
		return nil, errors.New("rstar: store holds no tree")
	}
	return &Tree{store: store, opts: opts, root: root, height: height, count: count}, nil
}

func (t *Tree) persistRoot() error {
	return t.store.SetRoot(t.root, t.height, t.count)
}

// Root returns the root node id.
func (t *Tree) Root() NodeID { return t.root }

// Height returns the number of levels; 1 means the root is a leaf.
func (t *Tree) Height() int { return t.height }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.count }

// MaxEntries returns the configured fan-out.
func (t *Tree) MaxEntries() int { return t.opts.MaxEntries }

// Node fetches a node by id, counting one visit on the cumulative
// counter only. Custom traversals that need per-query I/O accounting or
// cancellation — such as the NWC algorithm's pruned best-first search —
// should go through a Reader (Tree.Reader) instead.
func (t *Tree) Node(id NodeID) (*Node, error) { return t.store.Get(id) }

// Visits returns the node-visit count accumulated by the store.
func (t *Tree) Visits() uint64 { return t.store.Visits() }

// ResetVisits zeroes the node-visit counter.
func (t *Tree) ResetVisits() { t.store.ResetVisits() }

// MBR returns the bounding rectangle of all indexed points. It visits
// the root node.
func (t *Tree) MBR() (geom.Rect, error) {
	root, err := t.store.Get(t.root)
	if err != nil {
		return geom.Rect{}, err
	}
	return root.MBR(), nil
}
