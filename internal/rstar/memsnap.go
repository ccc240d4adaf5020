package rstar

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Versioned in-memory node storage.
//
// Freezing a MemStore converts it into a sequence of immutable versions
// (memView). Each version owns a chunked directory of node pointers;
// publishing a batch copies the directory and only the chunks it
// touches, so versions share almost all storage and a publication is a
// handful of small allocations regardless of tree size. The allocator
// (free list, next-ID high-water mark) and the cumulative visit counter
// live in memShared, common to every version.

const (
	memChunkShift = 9 // 512 node slots per chunk
	memChunkSize  = 1 << memChunkShift
	memChunkMask  = memChunkSize - 1
)

// memShared is the mutable state common to all versions of a frozen
// MemStore: the ID allocator and the cumulative visit counter.
type memShared struct {
	visits *atomic.Uint64

	mu   sync.Mutex
	free []NodeID
	next NodeID // lowest never-allocated ID
}

func (sh *memShared) reserve() NodeID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := len(sh.free); n > 0 {
		id := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return id
	}
	id := sh.next
	sh.next++
	return id
}

func (sh *memShared) release(ids []NodeID) {
	if len(ids) == 0 {
		return
	}
	sh.mu.Lock()
	sh.free = append(sh.free, ids...)
	sh.mu.Unlock()
}

// memView is one immutable version of a frozen MemStore. Reads are
// lock-free; all NodeStore mutation methods fail. New versions are
// derived through PublishBatch.
type memView struct {
	shared *memShared
	chunks [][]*Node // directory; chunks are shared across versions

	root   NodeID
	height int
	count  int
}

// Freeze implements freezableStore: it seals the store against further
// in-place mutation and returns the immutable view of its contents.
func (s *MemStore) Freeze() (NodeStore, error) {
	if s.sealed {
		return nil, errors.New("rstar: memstore already frozen")
	}
	s.sealed = true
	sh := &memShared{
		visits: &s.visits,
		free:   append([]NodeID(nil), s.free...),
		next:   NodeID(len(s.nodes)),
	}
	nChunks := (len(s.nodes) + memChunkMask) >> memChunkShift
	chunks := make([][]*Node, nChunks)
	for ci := range chunks {
		chunk := make([]*Node, memChunkSize)
		copy(chunk, s.nodes[ci<<memChunkShift:])
		chunks[ci] = chunk
	}
	return &memView{
		shared: sh,
		chunks: chunks,
		root:   s.root,
		height: s.height,
		count:  s.count,
	}, nil
}

func (v *memView) slot(id NodeID) *Node {
	ci := int(id) >> memChunkShift
	if ci >= len(v.chunks) {
		return nil
	}
	return v.chunks[ci][int(id)&memChunkMask]
}

// Get implements NodeStore and counts one visit.
func (v *memView) Get(id NodeID) (*Node, error) {
	n := v.slot(id)
	if n == nil {
		return nil, fmt.Errorf("rstar: memview: no node %d", id)
	}
	v.shared.visits.Add(1)
	return n, nil
}

func (v *memView) Alloc(*Node) error { return ErrImmutableTree }
func (v *memView) Put(*Node) error   { return ErrImmutableTree }
func (v *memView) Free(NodeID) error { return ErrImmutableTree }

// Root implements NodeStore.
func (v *memView) Root() (NodeID, int, int) { return v.root, v.height, v.count }

// SetRoot implements NodeStore; versions are immutable.
func (v *memView) SetRoot(NodeID, int, int) error { return ErrImmutableTree }

// Visits implements NodeStore via the shared cumulative counter.
func (v *memView) Visits() uint64 { return v.shared.visits.Load() }

// ResetVisits implements NodeStore via the shared cumulative counter.
func (v *memView) ResetVisits() { v.shared.visits.Store(0) }

// ReserveID implements snapshotStore.
func (v *memView) ReserveID() (NodeID, error) { return v.shared.reserve(), nil }

// UnreserveIDs implements snapshotStore.
func (v *memView) UnreserveIDs(ids []NodeID) { v.shared.release(ids) }

// ReleaseIDs implements snapshotStore. The caller guarantees no live
// reader can reach the IDs; with in-memory versions the retired nodes
// simply become reusable slots (old versions keep their own chunk
// copies, so even a stale pinned view stays intact).
func (v *memView) ReleaseIDs(ids []NodeID) { v.shared.release(ids) }

// PublishBatch implements snapshotStore: it derives the next version by
// copying the chunk directory, rewriting only the chunks that hold
// written or dead slots.
func (v *memView) PublishBatch(written []*Node, dead []NodeID, root NodeID, height, count int) (NodeStore, error) {
	maxID := NodeID(0)
	for _, n := range written {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	nChunks := len(v.chunks)
	if need := (int(maxID) + 1 + memChunkMask) >> memChunkShift; need > nChunks {
		nChunks = need
	}
	chunks := make([][]*Node, nChunks)
	copy(chunks, v.chunks)

	cow := func(ci int) []*Node {
		chunk := chunks[ci]
		if chunk == nil {
			chunk = make([]*Node, memChunkSize)
		} else if ci < len(v.chunks) && &chunk[0] == &v.chunks[ci][0] {
			chunk = append([]*Node(nil), chunk...)
		}
		chunks[ci] = chunk
		return chunk
	}
	// Process dead slots first: a released-and-reused ID can appear in
	// both lists, and the written node must win.
	for _, id := range dead {
		ci := int(id) >> memChunkShift
		if ci >= len(chunks) || chunks[ci] == nil {
			return nil, fmt.Errorf("rstar: memview: publish retires unknown node %d", id)
		}
		cow(ci)[int(id)&memChunkMask] = nil
	}
	for _, n := range written {
		cow(int(n.ID) >> memChunkShift)[int(n.ID)&memChunkMask] = n
	}
	return &memView{
		shared: v.shared,
		chunks: chunks,
		root:   root,
		height: height,
		count:  count,
	}, nil
}

// NumNodes returns the number of live nodes in this version (for
// storage accounting).
func (v *memView) NumNodes() int {
	n := 0
	for _, chunk := range v.chunks {
		for _, node := range chunk {
			if node != nil {
				n++
			}
		}
	}
	return n
}
