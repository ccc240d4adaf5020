package rstar

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nwcq/internal/geom"
)

// faultStore wraps a NodeStore and fails the i-th operation of a chosen
// kind, for error-propagation testing.
type faultStore struct {
	NodeStore
	failGet                   int // fail the n-th Get (1-based); 0 = never
	failPut                   int
	failAlloc                 int
	failFree                  int
	gets, puts, allocs, frees int
}

var errInjected = errors.New("injected storage fault")

func (s *faultStore) Get(id NodeID) (*Node, error) {
	s.gets++
	if s.failGet > 0 && s.gets == s.failGet {
		return nil, fmt.Errorf("get %d: %w", id, errInjected)
	}
	return s.NodeStore.Get(id)
}

func (s *faultStore) Put(n *Node) error {
	s.puts++
	if s.failPut > 0 && s.puts == s.failPut {
		return fmt.Errorf("put %d: %w", n.ID, errInjected)
	}
	return s.NodeStore.Put(n)
}

func (s *faultStore) Alloc(n *Node) error {
	s.allocs++
	if s.failAlloc > 0 && s.allocs == s.failAlloc {
		return errInjected
	}
	return s.NodeStore.Alloc(n)
}

func (s *faultStore) Free(id NodeID) error {
	s.frees++
	if s.failFree > 0 && s.frees == s.failFree {
		return errInjected
	}
	return s.NodeStore.Free(id)
}

// TestFaultPropagation checks that storage errors surface from every
// tree operation instead of being swallowed or panicking.
func TestFaultPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	pts := genPoints(rng, 400, true)

	// Determine roughly how many operations a clean run performs, then
	// inject faults across that range.
	clean := &faultStore{NodeStore: NewMemStore()}
	tr, err := New(clean, Options{MaxEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.SearchCollect(geom.NewRect(0, 0, 500, 500)); err != nil {
		t.Fatal(err)
	}
	totalGets, totalPuts := clean.gets, clean.puts

	for _, failAt := range []int{1, 2, totalGets / 2, totalGets} {
		fs := &faultStore{NodeStore: NewMemStore(), failGet: failAt}
		tr, err := New(fs, Options{MaxEntries: 5})
		if err != nil {
			continue // fault hit during construction: also acceptable
		}
		sawErr := false
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("foreign error: %v", err)
				}
				sawErr = true
				break
			}
		}
		if !sawErr {
			// The fault may land in a query instead.
			if _, err := tr.SearchCollect(geom.NewRect(0, 0, 1000, 1000)); err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("foreign error: %v", err)
				}
				sawErr = true
			}
			it := tr.NewNNIterator(geom.Point{X: 1, Y: 1})
			for {
				if _, _, _, ok := it.Next(); !ok {
					break
				}
			}
			if it.Err() != nil && !errors.Is(it.Err(), errInjected) {
				t.Fatalf("foreign NN error: %v", it.Err())
			}
		}
	}

	for _, failAt := range []int{1, totalPuts / 3, totalPuts} {
		fs := &faultStore{NodeStore: NewMemStore(), failPut: failAt}
		tr, err := New(fs, Options{MaxEntries: 5})
		if err != nil {
			continue
		}
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("foreign error: %v", err)
				}
				break
			}
		}
	}

	// Alloc faults during bulk load.
	fs := &faultStore{NodeStore: NewMemStore(), failAlloc: 3}
	if _, err := Build(fs, Options{MaxEntries: 5}, pts, true); err == nil {
		t.Error("bulk load over failing alloc succeeded")
	} else if !errors.Is(err, errInjected) {
		t.Errorf("foreign bulk-load error: %v", err)
	}

	// Free faults during delete.
	fs = &faultStore{NodeStore: NewMemStore(), failFree: 1}
	tr3, err := New(fs, Options{MaxEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:100] {
		if err := tr3.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	sawFreeErr := false
	for _, p := range pts[:100] {
		if _, err := tr3.Delete(p); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("foreign delete error: %v", err)
			}
			sawFreeErr = true
			break
		}
	}
	if !sawFreeErr {
		t.Log("no node was freed during deletes (acceptable for this shape)")
	}
}
