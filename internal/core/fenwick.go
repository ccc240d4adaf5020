package core

import "slices"

// distStats is an order-statistic structure over the objects currently
// inside the sliding candidate window: a Fenwick (binary indexed) tree
// over coordinate-compressed object distances, tracking per-rank counts
// and distance sums.
//
// evaluateWindows slides a window over the y-sorted candidates of one
// anchor; each object enters and leaves the window exactly once. Under
// MeasureAvg the distance of a window's best group is the mean of its n
// smallest object distances, which no running count can bound sharply;
// computing it from scratch costs O(s) per window (O(s²) per anchor),
// the Fenwick tree answers it in O(log s). MeasureMax and MeasureMin
// need only a count of objects under the bound and do not use this.
type distStats struct {
	dist  []float64 // sorted unique distances; rank i ↔ dist[i]
	cnt   []int     // Fenwick tree of counts (1-based)
	sum   []float64 // Fenwick tree of distance sums (1-based)
	total int
}

// reset re-initialises ds, empty, for the distances of a new slab (one
// per object; duplicates welcome), reusing the slice capacity of a
// previous use — per-query scratch holds one distStats so anchor
// evaluation stops allocating Fenwick arrays.
func (ds *distStats) reset(slab []distPoint) {
	ds.dist = ds.dist[:0]
	for _, o := range slab {
		ds.dist = append(ds.dist, o.d)
	}
	slices.Sort(ds.dist)
	ds.dist = slices.Compact(ds.dist)
	n := len(ds.dist)
	if cap(ds.cnt) < n+1 {
		ds.cnt = make([]int, n+1)
		ds.sum = make([]float64, n+1)
	}
	ds.cnt = ds.cnt[:n+1]
	ds.sum = ds.sum[:n+1]
	clear(ds.cnt)
	clear(ds.sum)
	ds.total = 0
}

// rankOf returns the 0-based rank of a distance that is guaranteed to
// be present in the compressed domain.
func (ds *distStats) rankOf(d float64) int {
	r, _ := slices.BinarySearch(ds.dist, d)
	return r
}

func (ds *distStats) add(rank int) {
	d := ds.dist[rank]
	for i := rank + 1; i <= len(ds.dist); i += i & (-i) {
		ds.cnt[i]++
		ds.sum[i] += d
	}
	ds.total++
}

func (ds *distStats) remove(rank int) {
	d := ds.dist[rank]
	for i := rank + 1; i <= len(ds.dist); i += i & (-i) {
		ds.cnt[i]--
		ds.sum[i] -= d
	}
	ds.total--
}

// sumSmallest returns the sum of the k smallest distances in the
// window. The caller guarantees 1 ≤ k ≤ total.
func (ds *distStats) sumSmallest(k int) float64 {
	pos := 0
	remain := k
	total := 0.0
	step := 1
	for step*2 <= len(ds.dist) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		next := pos + step
		if next <= len(ds.dist) && ds.cnt[next] < remain {
			remain -= ds.cnt[next]
			total += ds.sum[next]
			pos = next
		}
	}
	// pos now indexes the rank holding the remaining elements (all of
	// equal distance).
	if remain > 0 {
		total += float64(remain) * ds.dist[pos]
	}
	return total
}
