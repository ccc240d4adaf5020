package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"nwcq/internal/geom"
	"nwcq/internal/pager"
)

// PagedStore persists each node on one 4096-byte page of a pager.Store,
// giving the tree its disk-oriented form: one node visit = one page
// access, exactly the paper's I/O accounting.
//
// Node page layout (big endian):
//
//	[0]    kind: 1 = leaf, 0 = internal
//	[1:3]  entry count (uint16)
//	leaf entries, 24 bytes each:      x float64, y float64, id uint64
//	internal entries, 36 bytes each:  minx, miny, maxx, maxy float64, child uint32
//
// A decoded-node cache sits in front of the page reads so hot
// upper-tree nodes are not re-decoded on every visit. The cache is
// transparent to the paper's I/O accounting: Get counts one visit
// whether the node came from the cache, the buffer pool, or the file —
// a visit models touching the node, and which memory tier supplied the
// bytes is the optimisation under study, not the metric.
type PagedStore struct {
	pages  *pager.Store
	visits atomic.Uint64

	// cache holds decoded nodes; nil when disabled. version is bumped by
	// every Put/Free, letting concurrent Gets detect that the bytes they
	// decoded are stale before inserting them (see insertIfVersion).
	cache   *nodeCache
	version atomic.Uint64
}

const (
	leafEntrySize     = 24
	internalEntrySize = 36
	nodeHeaderSize    = 3
)

// MaxPagedEntries returns the largest fan-out that fits a node on one
// page; both entry kinds must fit. The paper's fan-out of 50 fits with
// room to spare.
func MaxPagedEntries() int {
	return (pager.PayloadSize() - nodeHeaderSize) / internalEntrySize
}

// NewPagedStore wraps a pager.Store as a NodeStore with the default
// decoded-node cache.
func NewPagedStore(pages *pager.Store) *PagedStore {
	return NewPagedStoreCache(pages, DefaultNodeCacheSize)
}

// NewPagedStoreCache wraps a pager.Store as a NodeStore with a
// decoded-node cache holding about nodes entries; nodes <= 0 disables
// the cache so every Get decodes from the page image.
func NewPagedStoreCache(pages *pager.Store, nodes int) *PagedStore {
	return &PagedStore{pages: pages, cache: newNodeCache(nodes)}
}

// Pages exposes the underlying page store (for stats and Sync).
func (s *PagedStore) Pages() *pager.Store { return s.pages }

// Alloc implements NodeStore: the node's image is its page's first
// and only write, and a recycled page's cached decode is dropped as a
// Put drops it. Only an internal node's page gets a pool frame: a
// build reads internal nodes back (the IWP build) and no leaf.
func (s *PagedStore) Alloc(n *Node) error {
	buf, err := encodeNode(n)
	if err != nil {
		return err
	}
	id, err := s.pages.Allocate(buf, !n.Leaf)
	if err != nil {
		return err
	}
	n.ID = NodeID(id)
	s.version.Add(1)
	s.cache.drop(n.ID)
	return nil
}

// Get implements NodeStore and counts one visit. Cached nodes are
// shared between callers and must be treated as read-only during
// queries (mutating paths own the tree exclusively and invalidate via
// Put/Free).
func (s *PagedStore) Get(id NodeID) (*Node, error) {
	if n := s.cache.get(id); n != nil {
		s.visits.Add(1)
		return n, nil
	}
	v := s.version.Load()
	buf, err := s.pages.Read(pager.PageID(id))
	if err != nil {
		return nil, err
	}
	s.visits.Add(1)
	n, err := decodeNode(id, buf)
	if err != nil {
		return nil, err
	}
	s.cache.insertIfVersion(n, v, s.version.Load)
	return n, nil
}

// Put implements NodeStore. The order matters for concurrent readers:
// write the page, bump the version (so a reader that read the old bytes
// refuses to cache its decode), then drop any cached copy.
func (s *PagedStore) Put(n *Node) error {
	buf, err := encodeNode(n)
	if err != nil {
		return err
	}
	if err := s.pages.Write(pager.PageID(n.ID), buf); err != nil {
		return err
	}
	s.version.Add(1)
	s.cache.drop(n.ID)
	return nil
}

// Free implements NodeStore, invalidating like Put.
func (s *PagedStore) Free(id NodeID) error {
	s.version.Add(1)
	s.cache.drop(id)
	return s.pages.Free(pager.PageID(id))
}

// Root implements NodeStore, reading the reference persisted in the page
// file header.
func (s *PagedStore) Root() (NodeID, int, int) {
	root, meta := s.pages.UserRoot()
	if len(meta) < 16 {
		return NodeID(root), 0, 0
	}
	height := int(binary.BigEndian.Uint64(meta[0:8]))
	count := int(binary.BigEndian.Uint64(meta[8:16]))
	return NodeID(root), height, count
}

// SetRoot implements NodeStore.
func (s *PagedStore) SetRoot(id NodeID, height, count int) error {
	var meta [16]byte
	binary.BigEndian.PutUint64(meta[0:8], uint64(height))
	binary.BigEndian.PutUint64(meta[8:16], uint64(count))
	return s.pages.SetUserRoot(pager.PageID(id), meta[:])
}

// Visits implements NodeStore.
func (s *PagedStore) Visits() uint64 { return s.visits.Load() }

// ResetVisits implements NodeStore.
func (s *PagedStore) ResetVisits() { s.visits.Store(0) }

// ReserveID implements snapshotStore by allocating a fresh page. The
// pager never hands out a live page (the free list holds only pages
// released after their readers drained), so writing the page later
// cannot disturb a pinned version.
func (s *PagedStore) ReserveID() (NodeID, error) {
	id, err := s.pages.Allocate(nil, false)
	if err != nil {
		return 0, err
	}
	return NodeID(id), nil
}

// UnreserveIDs implements snapshotStore. Nothing was published under
// the IDs, so the pages can rejoin the free list immediately.
func (s *PagedStore) UnreserveIDs(ids []NodeID) {
	for _, id := range ids {
		_ = s.pages.Free(pager.PageID(id))
	}
}

// PublishBatch implements snapshotStore: shadow paging. Every written
// node goes to a page allocated this batch — never on top of a live
// page — so readers of the previous version keep seeing their nodes
// byte-for-byte; the version flip is the SetRoot at the end. Dead pages
// are left untouched until ReleaseIDs (pager.Free scribbles a free-list
// link into the page, which would corrupt a pinned reader's view). The
// batch's new pages, reserved into the pager's write-behind run, take
// their images there and go to the file in one write.
func (s *PagedStore) PublishBatch(written []*Node, dead []NodeID, root NodeID, height, count int) (NodeStore, error) {
	for _, n := range written {
		if err := s.Put(n); err != nil {
			return nil, err
		}
	}
	if err := s.pages.Flush(); err != nil {
		return nil, err
	}
	if err := s.SetRoot(root, height, count); err != nil {
		return nil, err
	}
	return s, nil
}

// ReleaseIDs implements snapshotStore, freeing the pages of retired
// nodes once the caller has proven no reader can reach them.
func (s *PagedStore) ReleaseIDs(ids []NodeID) {
	for _, id := range ids {
		_ = s.Free(id)
	}
}

func encodeNode(n *Node) ([]byte, error) {
	var size int
	if n.Leaf {
		size = nodeHeaderSize + leafEntrySize*len(n.Points)
	} else {
		size = nodeHeaderSize + internalEntrySize*len(n.Children)
	}
	if size > pager.PayloadSize() {
		return nil, fmt.Errorf("rstar: node %d with %d entries overflows page", n.ID, n.Len())
	}
	buf := make([]byte, size)
	if n.Leaf {
		buf[0] = 1
	}
	binary.BigEndian.PutUint16(buf[1:3], uint16(n.Len()))
	off := nodeHeaderSize
	if n.Leaf {
		for _, p := range n.Points {
			binary.BigEndian.PutUint64(buf[off:], math.Float64bits(p.X))
			binary.BigEndian.PutUint64(buf[off+8:], math.Float64bits(p.Y))
			binary.BigEndian.PutUint64(buf[off+16:], p.ID)
			off += leafEntrySize
		}
		return buf, nil
	}
	if len(n.Rects) != len(n.Children) {
		return nil, fmt.Errorf("rstar: node %d rects/children length mismatch", n.ID)
	}
	for i, c := range n.Children {
		r := n.Rects[i]
		binary.BigEndian.PutUint64(buf[off:], math.Float64bits(r.MinX))
		binary.BigEndian.PutUint64(buf[off+8:], math.Float64bits(r.MinY))
		binary.BigEndian.PutUint64(buf[off+16:], math.Float64bits(r.MaxX))
		binary.BigEndian.PutUint64(buf[off+24:], math.Float64bits(r.MaxY))
		binary.BigEndian.PutUint32(buf[off+32:], uint32(c))
		off += internalEntrySize
	}
	return buf, nil
}

func decodeNode(id NodeID, buf []byte) (*Node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("rstar: node %d page too short", id)
	}
	if buf[0] > 1 {
		return nil, fmt.Errorf("rstar: node %d has kind %d, neither leaf nor internal", id, buf[0])
	}
	n := &Node{ID: id, Leaf: buf[0] == 1}
	count := int(binary.BigEndian.Uint16(buf[1:3]))
	off := nodeHeaderSize
	if n.Leaf {
		if off+count*leafEntrySize > len(buf) {
			return nil, fmt.Errorf("rstar: node %d truncated (%d leaf entries)", id, count)
		}
		n.Points = make([]geom.Point, 0, count)[:0]
		for i := 0; i < count; i++ {
			n.Points = append(n.Points, geom.Point{
				X:  math.Float64frombits(binary.BigEndian.Uint64(buf[off:])),
				Y:  math.Float64frombits(binary.BigEndian.Uint64(buf[off+8:])),
				ID: binary.BigEndian.Uint64(buf[off+16:]),
			})
			off += leafEntrySize
		}
		return n, nil
	}
	if off+count*internalEntrySize > len(buf) {
		return nil, fmt.Errorf("rstar: node %d truncated (%d internal entries)", id, count)
	}
	n.Rects = make([]geom.Rect, 0, count)
	n.Children = make([]NodeID, 0, count)
	for i := 0; i < count; i++ {
		n.Rects = append(n.Rects, geom.Rect{
			MinX: math.Float64frombits(binary.BigEndian.Uint64(buf[off:])),
			MinY: math.Float64frombits(binary.BigEndian.Uint64(buf[off+8:])),
			MaxX: math.Float64frombits(binary.BigEndian.Uint64(buf[off+16:])),
			MaxY: math.Float64frombits(binary.BigEndian.Uint64(buf[off+24:])),
		})
		n.Children = append(n.Children, NodeID(binary.BigEndian.Uint32(buf[off+32:])))
		off += internalEntrySize
	}
	return n, nil
}
