package rstar

import (
	"errors"
	"fmt"
	"slices"

	"nwcq/internal/geom"
)

// Snapshots and copy-on-write mutation.
//
// The R*-tree algorithms in insert.go and delete.go mutate nodes in
// place through the store (Get → modify → Put), which is fine while one
// goroutine owns the tree but fatal under concurrent readers. This file
// adds the machinery that makes online mutation safe without putting a
// single lock on the read path:
//
//   - Freeze seals a freshly built tree and returns an immutable read
//     view of it. A frozen *Tree value (root, height, count, pinned
//     store version) never changes; every traversal through it — window
//     queries, the NN iterator, the NWC engine — observes exactly the
//     point set it was frozen with.
//
//   - BeginWrite starts a mutation batch: a private overlay store whose
//     Get hands the R*-tree algorithms clones of the underlying nodes,
//     so Insert/Delete run completely unchanged while touching nothing
//     a concurrent reader can see.
//
//   - Commit publishes the batch with shadow allocation: every node the
//     batch wrote is assigned a fresh ID and written next to — never on
//     top of — the nodes of the current version, child references are
//     remapped, and the new root is installed with a single atomic
//     publication. Readers that pinned the old version keep traversing
//     the old nodes; readers that pin afterwards see the new tree.
//
//   - The IDs superseded by a commit (freed nodes plus the old IDs of
//     rewritten ones) are returned to the caller, which must hand them
//     back through ReleaseNodes once every reader that could reference
//     them has drained. Until then the slots stay live, so a reader in
//     the middle of a traversal can never observe a recycled node.
//
//   - Next to the retired IDs, Commit returns the nodes it wrote under
//     their final IDs. Together they are the exact difference between
//     the two versions' node sets (Delta), which lets structures derived
//     from the tree — the IWP pointer index — be patched per commit
//     instead of rebuilt.
//
// Shadow allocation relies on one structural invariant of the R*-tree
// algorithms: whenever a node's content changes, its parent is also
// written in the same batch (MBR adjustment, split installation, or
// condense), so remapping a rewritten child always finds its parent in
// the batch too. The root is written by every mutating operation.
type snapshotStore interface {
	NodeStore
	// ReserveID allocates a fresh node ID without publishing any
	// content under it. The ID is invisible to readers until a
	// PublishBatch installs a node for it.
	ReserveID() (NodeID, error)
	// UnreserveIDs returns reserved-but-never-published IDs to the
	// allocator (a discarded or failed batch).
	UnreserveIDs(ids []NodeID)
	// PublishBatch atomically installs the written nodes (already under
	// their final IDs) and removes the dead IDs from the readable view,
	// persisting the new root metadata. It returns the NodeStore that
	// readers of the new version must use (the same store when versions
	// are implicit, as with shadow-paged files).
	PublishBatch(written []*Node, dead []NodeID, root NodeID, height, count int) (NodeStore, error)
	// ReleaseIDs returns dead IDs to the allocator for reuse. Callers
	// must guarantee no reader still holds a view that can reach them.
	ReleaseIDs(ids []NodeID)
}

// freezableStore is implemented by stores that need an explicit
// transition from the mutable build phase to immutable versioned reads.
type freezableStore interface {
	// Freeze seals the store against in-place mutation and returns the
	// read view of its current contents.
	Freeze() (NodeStore, error)
}

// ErrImmutableTree is returned by direct mutations (Insert, Delete,
// BulkLoad) on a frozen tree; changes must go through BeginWrite.
var ErrImmutableTree = errors.New("rstar: tree snapshot is immutable; use BeginWrite")

// Freeze seals the tree's store against in-place mutation and returns
// an immutable snapshot of the current tree. The returned tree is safe
// for any number of concurrent readers; all further changes must go
// through BeginWrite on it (or on any snapshot committed after it).
// The snapshot shares the store's cumulative visit counter.
func (t *Tree) Freeze() (*Tree, error) {
	switch s := t.store.(type) {
	case freezableStore:
		view, err := s.Freeze()
		if err != nil {
			return nil, err
		}
		return &Tree{store: view, opts: t.opts, root: t.root, height: t.height, count: t.count, frozen: true}, nil
	case snapshotStore:
		// Already snapshot-capable with implicit versions (shadow-paged
		// stores): the tree value itself is the pinned view.
		cp := *t
		cp.reinsertedAtLevel = nil
		cp.frozen = true
		return &cp, nil
	default:
		return nil, fmt.Errorf("rstar: store %T does not support snapshots", t.store)
	}
}

// ReleaseNodes returns node IDs retired by an earlier Commit to the
// store's allocator. Call it only after every reader pinned to a
// version that could reference the IDs has finished; typically this is
// driven by the caller's view reclamation (reference counts or
// quiescence), not by query code.
func (t *Tree) ReleaseNodes(ids []NodeID) error {
	if len(ids) == 0 {
		return nil
	}
	ss, ok := t.store.(snapshotStore)
	if !ok {
		return fmt.Errorf("rstar: store %T does not support snapshots", t.store)
	}
	ss.ReleaseIDs(ids)
	return nil
}

// Delta is the exact difference between the node sets of a snapshot and
// of the snapshot a Commit derived from it.
//
// Written holds every node reachable in the new tree under an ID the
// base tree did not use, with its child IDs and child MBRs as published;
// the nodes are shared with the store and must not be modified. Retired
// holds every ID reachable in the base tree and no longer in the new
// one. The new root is always written, and so is the parent of every
// other written node (the invariant shadow allocation itself rests on),
// so the written nodes form one connected top of the new tree.
type Delta struct {
	Written []*Node
	Retired []NodeID
}

// WriteBatch is one copy-on-write mutation batch over a frozen tree.
// Run ordinary Tree mutations on Tree(), then Commit to publish them
// all at once or Discard to drop them. A batch is single-goroutine;
// concurrent batches over the same store must be serialised by the
// caller (the nwcq layer holds a writer mutex).
type WriteBatch struct {
	base *Tree // the snapshot the batch started from
	tree *Tree // overlay-backed tree the mutations run on
	ov   *cowStore
	done bool
}

// BeginWrite starts a mutation batch over a frozen tree. The returned
// batch's Tree accepts Insert and Delete exactly like a mutable tree;
// nothing is visible to readers of t until Commit.
func (t *Tree) BeginWrite() (*WriteBatch, error) {
	ss, ok := t.store.(snapshotStore)
	if !ok {
		return nil, fmt.Errorf("rstar: store %T does not support snapshot writes; Freeze the tree first", t.store)
	}
	ov := &cowStore{
		base:    ss,
		dirty:   make(map[NodeID]*Node),
		written: make(map[NodeID]bool),
		allocs:  make(map[NodeID]bool),
	}
	wt := &Tree{store: ov, opts: t.opts, root: t.root, height: t.height, count: t.count}
	return &WriteBatch{base: t, tree: wt, ov: ov}, nil
}

// Tree returns the mutable tree the batch's changes are applied to.
func (b *WriteBatch) Tree() *Tree { return b.tree }

// Commit publishes the batch: every written node is installed under a
// fresh ID next to the current version's nodes, child references are
// remapped, and the new root is persisted. It returns the new immutable
// snapshot plus the commit's Delta. The delta's retired IDs are node
// slots that versions up to and including the superseded one may still
// reference; the caller must pass them to ReleaseNodes once those
// versions have drained.
//
// An empty batch (for example a Delete that found nothing) returns the
// base snapshot unchanged with an empty delta. On error nothing has
// been published and the base snapshot is intact.
func (b *WriteBatch) Commit() (*Tree, Delta, error) {
	if b.done {
		return nil, Delta{}, errors.New("rstar: write batch already finished")
	}
	b.done = true
	ov := b.ov
	if len(ov.written) == 0 && len(ov.freedBase) == 0 {
		ov.base.UnreserveIDs(ov.unreserved)
		return b.base, Delta{}, nil
	}

	// Shadow-allocate a fresh ID for every rewritten base node. Batch
	// allocations already hold fresh IDs.
	remap := make(map[NodeID]NodeID, len(ov.written))
	writtenIDs := make([]NodeID, 0, len(ov.written))
	for id := range ov.written {
		writtenIDs = append(writtenIDs, id)
	}
	// Deterministic processing order keeps stores with sequential ID
	// allocation (page files) reproducible run to run.
	slices.Sort(writtenIDs)
	for _, id := range writtenIDs {
		if ov.allocs[id] {
			continue
		}
		nid, err := ov.base.ReserveID()
		if err != nil {
			ov.base.UnreserveIDs(ov.unreserved)
			return nil, Delta{}, err
		}
		remap[id] = nid
	}

	written := make([]*Node, 0, len(writtenIDs))
	for _, id := range writtenIDs {
		n := ov.dirty[id]
		if n == nil {
			return nil, Delta{}, fmt.Errorf("rstar: written node %d missing from batch", id)
		}
		if nid, ok := remap[n.ID]; ok {
			n.ID = nid
		}
		for i, c := range n.Children {
			if nc, ok := remap[c]; ok {
				n.Children[i] = nc
			}
		}
		written = append(written, n)
	}

	root := b.tree.root
	if nr, ok := remap[root]; ok {
		root = nr
	}

	// Retired: explicitly freed base nodes plus the old IDs of every
	// rewritten one. They stay readable for pinned old versions.
	retired := make([]NodeID, 0, len(ov.freedBase)+len(remap))
	retired = append(retired, ov.freedBase...)
	for old := range remap {
		retired = append(retired, old)
	}

	view, err := ov.base.PublishBatch(written, retired, root, b.tree.height, b.tree.count)
	if err != nil {
		return nil, Delta{}, err
	}
	ov.base.UnreserveIDs(ov.unreserved)
	next := &Tree{store: view, opts: b.tree.opts, root: root, height: b.tree.height, count: b.tree.count, frozen: true}
	return next, Delta{Written: written, Retired: retired}, nil
}

// Discard drops the batch, returning any reserved IDs to the allocator.
// The base snapshot is untouched.
func (b *WriteBatch) Discard() {
	if b.done {
		return
	}
	b.done = true
	ids := b.ov.unreserved
	for id := range b.ov.allocs {
		ids = append(ids, id)
	}
	b.ov.base.UnreserveIDs(ids)
}

// cowStore is the overlay NodeStore a WriteBatch runs the unmodified
// R*-tree algorithms against. Get hands out private clones (memoised,
// so repeated Gets observe earlier in-place edits), Put records a node
// as written, Alloc reserves fresh IDs, and Free defers base-node
// reclamation to the commit.
type cowStore struct {
	base    snapshotStore
	dirty   map[NodeID]*Node // clones and new nodes, by pre-commit ID
	written map[NodeID]bool  // IDs that were Put or Alloc'd
	allocs  map[NodeID]bool  // IDs reserved by this batch
	// freedBase holds base IDs freed by the batch; unreserved holds
	// batch-allocated IDs freed again before commit.
	freedBase  []NodeID
	unreserved []NodeID

	root   NodeID
	height int
	count  int
	metaOK bool
}

func (s *cowStore) Get(id NodeID) (*Node, error) {
	if n, ok := s.dirty[id]; ok {
		return n, nil
	}
	n, err := s.base.Get(id) // counts one visit on the shared counter
	if err != nil {
		return nil, err
	}
	cl := cloneNode(n)
	s.dirty[id] = cl
	return cl, nil
}

func (s *cowStore) Put(n *Node) error {
	s.dirty[n.ID] = n
	s.written[n.ID] = true
	return nil
}

func (s *cowStore) Alloc(leaf bool) (*Node, error) {
	id, err := s.base.ReserveID()
	if err != nil {
		return nil, err
	}
	n := &Node{ID: id, Leaf: leaf}
	s.dirty[id] = n
	s.written[id] = true
	s.allocs[id] = true
	return n, nil
}

func (s *cowStore) Free(id NodeID) error {
	if _, ok := s.dirty[id]; !ok {
		// Freeing a node the batch never read would be an algorithm bug.
		return fmt.Errorf("rstar: cow free of unseen node %d", id)
	}
	delete(s.dirty, id)
	delete(s.written, id)
	if s.allocs[id] {
		delete(s.allocs, id)
		s.unreserved = append(s.unreserved, id)
		return nil
	}
	s.freedBase = append(s.freedBase, id)
	return nil
}

func (s *cowStore) Root() (NodeID, int, int) {
	if s.metaOK {
		return s.root, s.height, s.count
	}
	return s.base.Root()
}

func (s *cowStore) SetRoot(id NodeID, height, count int) error {
	s.root, s.height, s.count, s.metaOK = id, height, count, true
	return nil
}

func (s *cowStore) Visits() uint64 { return s.base.Visits() }
func (s *cowStore) ResetVisits()   { s.base.ResetVisits() }

// cloneNode deep-copies a node so in-place edits cannot reach the
// shared original. Slices get one slot of headroom: most batch edits
// append a single entry, and a fresh backing array guarantees appends
// never write into the original's storage.
func cloneNode(n *Node) *Node {
	cl := &Node{ID: n.ID, Leaf: n.Leaf}
	if len(n.Rects) > 0 {
		cl.Rects = append(make([]geom.Rect, 0, len(n.Rects)+1), n.Rects...)
	}
	if len(n.Children) > 0 {
		cl.Children = append(make([]NodeID, 0, len(n.Children)+1), n.Children...)
	}
	if len(n.Points) > 0 {
		cl.Points = append(make([]geom.Point, 0, len(n.Points)+1), n.Points...)
	}
	return cl
}
