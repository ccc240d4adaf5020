package rstar

import (
	"math"
	"testing"
	"testing/quick"

	"nwcq/internal/geom"
)

// This file holds testing/quick property tests over the R*-tree: random
// point multisets and query shapes generated by the framework, invariants
// checked structurally.

// boundedPts converts arbitrary float64 pairs into finite points in a
// bounded range, so quick-generated extremes (NaN, ±Inf, 1e300) become
// usable coordinates while preserving arbitrariness.
func boundedPts(raw []struct{ X, Y float64 }) []geom.Point {
	pts := make([]geom.Point, 0, len(raw))
	norm := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return math.Mod(math.Abs(v), 1000)
	}
	for i, r := range raw {
		pts = append(pts, geom.Point{X: norm(r.X), Y: norm(r.Y), ID: uint64(i)})
	}
	return pts
}

func TestQuickInsertedTreeHoldsExactlyItsPoints(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, seed int64) bool {
		pts := boundedPts(raw)
		tr, err := New(NewMemStore(), Options{MaxEntries: 5})
		if err != nil {
			return false
		}
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				return false
			}
		}
		if tr.Len() != len(pts) {
			return false
		}
		if err := tr.CheckInvariants(false); err != nil {
			return false
		}
		all, err := tr.All()
		if err != nil || len(all) != len(pts) {
			return false
		}
		seen := map[geom.Point]int{}
		for _, p := range pts {
			seen[p]++
		}
		for _, p := range all {
			seen[p]--
			if seen[p] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickWindowQueryAgainstLinearScan(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, qx, qy, sx, sy float64) bool {
		pts := boundedPts(raw)
		tr, err := Build(NewMemStore(), Options{MaxEntries: 6}, pts, true)
		if err != nil {
			return false
		}
		norm := func(v float64) float64 {
			if math.IsNaN(v) {
				return 0
			}
			return math.Mod(math.Abs(v), 1200)
		}
		rect := geom.NewRect(norm(qx), norm(qy), norm(qx)+norm(sx), norm(qy)+norm(sy))
		got, err := tr.SearchCollect(rect)
		if err != nil {
			return false
		}
		want := 0
		for _, p := range pts {
			if rect.ContainsPoint(p) {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for _, p := range got {
			if !rect.ContainsPoint(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickNNOrderingProperty(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, qx, qy float64) bool {
		pts := boundedPts(raw)
		tr, err := New(NewMemStore(), Options{MaxEntries: 4})
		if err != nil {
			return false
		}
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				return false
			}
		}
		if math.IsNaN(qx) || math.IsNaN(qy) {
			qx, qy = 0, 0
		}
		q := geom.Point{X: math.Mod(qx, 2000), Y: math.Mod(qy, 2000)}
		it := tr.NewNNIterator(q)
		last := math.Inf(-1)
		count := 0
		for {
			_, _, d2, ok := it.Next()
			if !ok {
				break
			}
			if d2 < last {
				return false
			}
			last = d2
			count++
		}
		return it.Err() == nil && count == len(pts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeleteLeavesRemainder(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, delMask uint64) bool {
		pts := boundedPts(raw)
		tr, err := New(NewMemStore(), Options{MaxEntries: 4})
		if err != nil {
			return false
		}
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				return false
			}
		}
		kept := 0
		for i, p := range pts {
			if delMask&(1<<(uint(i)%64)) != 0 {
				ok, err := tr.Delete(p)
				if err != nil || !ok {
					return false
				}
			} else {
				kept++
			}
		}
		if tr.Len() != kept {
			return false
		}
		return tr.CheckInvariants(false) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickBulkLoadEqualsInsertion: the two build paths index the same
// multiset and answer window queries identically.
func TestQuickBulkLoadEqualsInsertion(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }, qx, qy, sx, sy float64) bool {
		pts := boundedPts(raw)
		a, err := Build(NewMemStore(), Options{MaxEntries: 8}, pts, true)
		if err != nil {
			return false
		}
		b, err := New(NewMemStore(), Options{MaxEntries: 8})
		if err != nil {
			return false
		}
		for _, p := range pts {
			if err := b.Insert(p); err != nil {
				return false
			}
		}
		norm := func(v float64) float64 {
			if math.IsNaN(v) {
				return 0
			}
			return math.Mod(math.Abs(v), 1200)
		}
		rect := geom.NewRect(norm(qx), norm(qy), norm(qx)+norm(sx), norm(qy)+norm(sy))
		ra, err := a.SearchCollect(rect)
		if err != nil {
			return false
		}
		rb, err := b.SearchCollect(rect)
		if err != nil {
			return false
		}
		if len(ra) != len(rb) {
			return false
		}
		seen := map[geom.Point]int{}
		for _, p := range ra {
			seen[p]++
		}
		for _, p := range rb {
			seen[p]--
			if seen[p] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPagedRoundTrip: any tree built on a paged store round-trips
// node encoding for every node.
func TestQuickPagedRoundTrip(t *testing.T) {
	prop := func(raw []struct{ X, Y float64 }) bool {
		pts := boundedPts(raw)
		tr, err := New(NewMemStore(), Options{MaxEntries: 5})
		if err != nil {
			return false
		}
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				return false
			}
		}
		ok := true
		err = tr.Walk(func(n *Node) bool {
			buf, err := encodeNode(n, nil)
			if err != nil {
				ok = false
				return false
			}
			back, err := decodeNode(n.ID, buf)
			if err != nil || back.Leaf != n.Leaf || back.Len() != n.Len() {
				ok = false
				return false
			}
			for i := range n.Points {
				if back.Points[i] != n.Points[i] {
					ok = false
					return false
				}
			}
			for i := range n.Children {
				if back.Children[i] != n.Children[i] || back.Rects[i] != n.Rects[i] {
					ok = false
					return false
				}
			}
			return true
		})
		return ok && err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
