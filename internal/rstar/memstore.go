package rstar

import (
	"fmt"
	"sync/atomic"
)

// MemStore keeps nodes resident in memory while still counting node
// visits. It is the store used by benchmarks: the paper's metric is node
// visits, which is identical whether nodes live in RAM or on pages.
type MemStore struct {
	nodes  []*Node // index = NodeID; slot 0 unused
	free   []NodeID
	visits atomic.Uint64

	root   NodeID
	height int
	count  int

	// sealed is set by Freeze; afterwards the store rejects in-place
	// mutation and all changes flow through versioned snapshots
	// (memsnap.go).
	sealed bool
}

// NewMemStore returns an empty resident node store.
func NewMemStore() *MemStore {
	return &MemStore{nodes: make([]*Node, 1)}
}

// Alloc implements NodeStore.
func (s *MemStore) Alloc(node *Node) error {
	if s.sealed {
		return ErrImmutableTree
	}
	var id NodeID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = NodeID(len(s.nodes))
		s.nodes = append(s.nodes, nil)
	}
	node.ID = id
	s.nodes[id] = node
	return nil
}

// Get implements NodeStore and counts one visit.
func (s *MemStore) Get(id NodeID) (*Node, error) {
	if int(id) >= len(s.nodes) || s.nodes[id] == nil {
		return nil, fmt.Errorf("rstar: memstore: no node %d", id)
	}
	s.visits.Add(1)
	return s.nodes[id], nil
}

// Put implements NodeStore. Nodes are shared pointers, so mutations made
// through Get are already visible; Put validates liveness.
func (s *MemStore) Put(n *Node) error {
	if s.sealed {
		return ErrImmutableTree
	}
	if int(n.ID) >= len(s.nodes) || s.nodes[n.ID] == nil {
		return fmt.Errorf("rstar: memstore: put of dead node %d", n.ID)
	}
	s.nodes[n.ID] = n
	return nil
}

// Free implements NodeStore.
func (s *MemStore) Free(id NodeID) error {
	if s.sealed {
		return ErrImmutableTree
	}
	if int(id) >= len(s.nodes) || s.nodes[id] == nil {
		return fmt.Errorf("rstar: memstore: free of dead node %d", id)
	}
	s.nodes[id] = nil
	s.free = append(s.free, id)
	return nil
}

// Root implements NodeStore.
func (s *MemStore) Root() (NodeID, int, int) { return s.root, s.height, s.count }

// SetRoot implements NodeStore.
func (s *MemStore) SetRoot(id NodeID, height, count int) error {
	if s.sealed {
		return ErrImmutableTree
	}
	s.root, s.height, s.count = id, height, count
	return nil
}

// Visits implements NodeStore.
func (s *MemStore) Visits() uint64 { return s.visits.Load() }

// ResetVisits implements NodeStore.
func (s *MemStore) ResetVisits() { s.visits.Store(0) }

// NumNodes returns the number of live nodes (for storage accounting).
func (s *MemStore) NumNodes() int {
	n := 0
	for _, node := range s.nodes[1:] {
		if node != nil {
			n++
		}
	}
	return n
}
