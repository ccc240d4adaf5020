package core

import (
	"slices"
	"sync"
)

// searchScratch bundles the per-query working memory of the NWC/kNWC
// traversal: the best-first heap, the window memo, the current anchor's
// candidates and their distance order, the order-statistic setup arrays
// and the n-closest selection scratch.
// Queries borrow one from scratchPool so steady-state batch load (many
// queries across worker goroutines) stops allocating these on every
// call; everything handed to the caller (result groups, object lists)
// is still freshly allocated, so nothing escapes back into the pool.
type searchScratch struct {
	pq    pqueue
	memo  windowMemo  // what this query's window queries fetched so far
	slab  []distPoint // what a range query read, then the current anchor's candidates, y-ordered
	ord   []int32     // slab positions in distance order (distOrder)
	ranks []int       // slab object rank per index (MeasureAvg)
	sel   []distPoint // one window's n nearest, ascending
	role  []int32     // per slab position, its role for the rival
	rk    ranks       // the roles of a run, counted
	fen   distStats   // Fenwick arrays, reset per anchor
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// scratchKeepCap bounds the capacity retained when a scratch is
// returned to the pool, so one pathological query (a window covering
// the whole dataset) does not pin its peak memory forever.
const scratchKeepCap = 1 << 16

func getScratch() *searchScratch {
	sc := scratchPool.Get().(*searchScratch)
	sc.pq = sc.pq[:0]
	sc.memo.reset()
	return sc
}

func putScratch(sc *searchScratch) {
	if cap(sc.pq) > scratchKeepCap {
		sc.pq = nil
	}
	if cap(sc.slab) > scratchKeepCap {
		sc.slab = nil
	}
	if cap(sc.memo.pts) > scratchKeepCap {
		sc.memo.pts = nil
	}
	if cap(sc.ord) > scratchKeepCap {
		sc.ord = nil
	}
	if cap(sc.ranks) > scratchKeepCap {
		sc.ranks = nil
	}
	if cap(sc.sel) > scratchKeepCap {
		sc.sel = nil
	}
	if cap(sc.role) > scratchKeepCap {
		sc.role = nil
	}
	if cap(sc.fen.dist) > scratchKeepCap {
		sc.fen = distStats{}
	}
	scratchPool.Put(sc)
}

// ints returns a length-n slice backed by sc.ranks, reusing capacity.
func (sc *searchScratch) ints(n int) []int {
	if cap(sc.ranks) < n {
		sc.ranks = make([]int, n)
	}
	sc.ranks = sc.ranks[:n]
	return sc.ranks
}

// roles returns, backed by sc.role, the role of each point of s for r.
func (sc *searchScratch) roles(s []distPoint, r *rival) []int32 {
	out := sc.role[:0]
	for i := range s {
		out = append(out, int32(r.role(&s[i])))
	}
	sc.role = out
	return out
}

// distOrder returns the positions of s ascending under distLess, backed by
// sc.ord; up to insertionMax of them are put in order by insertion.
func (sc *searchScratch) distOrder(s []distPoint) []int32 {
	ord := sc.ord[:0]
	for i := range s {
		ord = append(ord, int32(i))
	}
	if len(ord) > insertionMax {
		slices.SortFunc(ord, func(a, b int32) int { return distCompare(s[a], s[b]) })
	} else {
		for i := 1; i < len(ord); i++ {
			k, j := ord[i], i
			for ; j > 0 && distLess(s[k], s[ord[j-1]]); j-- {
				ord[j] = ord[j-1]
			}
			ord[j] = k
		}
	}
	sc.ord = ord
	return ord
}
