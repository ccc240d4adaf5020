package core

import (
	"context"
	"math"
	"slices"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// Result is the answer to an NWC query.
type Result struct {
	Group
	// Found is false when no qualified window exists (for example when
	// n exceeds the number of objects any l × w window can hold).
	Found bool
}

// Exec is the execution descriptor of one engine query: what rides
// along with the traversal without changing its answer. The zero value
// is a plain untraced, unshared execution.
type Exec struct {
	// Rec, when non-nil, receives per-query structured tracing: the
	// traversal attributes wall time, node visits and pruning decisions
	// to algorithm phases on it. A nil Rec costs the query path one
	// nil-check branch per instrumentation point and nothing else.
	Rec *trace.Recorder
	// Bound, when non-nil, is a cooperative shared bound (NWC only; see
	// Engine.NWC and, for why kNWC ignores it, Engine.KNWC).
	Bound *rstar.SharedBound
	// Paper runs the paper's Algorithm 1 literally, so that NodeVisits is
	// the I/O count its figures report. It turns off what the engine adds:
	// anchor sharing (DESIGN.md §18: every anchor issues its own window
	// query), the repeat skip (§16), and the stop at the bound with NWC's
	// filter and box and kNWC's count before fetching (§19: everything is
	// queued, the queue drained, every search region read whole). Only
	// internal/harness (and tests) set it; a serving path never does.
	Paper bool
}

// NWC answers query qy with the given scheme and measure: of the groups at
// the least distance, the least in members' order (DESIGN.md §2). It
// implements Algorithm 1: a best-first traversal of the R*-tree visits
// objects in ascending distance from q; each object generates its
// search region and a window query; every candidate window found is
// checked against the best group so far; optimisations prune nodes,
// objects and window queries as enabled by the scheme.
//
// The context is consulted per node visit or anchor, whichever comes
// first: once ctx is done the traversal stops and the context's error is
// returned, along with the stats accumulated so far.
//
// When x.Bound is non-nil, every pruning decision (SRR, DIP, DEP, the
// window MINDIST gate) tests against min(local best, shared cell) — so
// a bound found by any concurrent search over another partition of the
// dataset shrinks this traversal's frontier at node-visit granularity —
// and every local improvement is published back into the cell.
//
// Sharing is sound because the cell is monotone non-increasing and always
// at least the final global best B, and only groups beyond the bound in
// force are pruned: what is elided is beyond B, which a scatter-gather
// merge discards anyway (DESIGN.md §12).
func (e *Engine) NWC(ctx context.Context, qy Query, scheme Scheme, measure Measure, x Exec) (Result, Stats, error) {
	if err := qy.Validate(); err != nil {
		return Result{}, Stats{}, err
	}
	if !measure.Valid() {
		return Result{}, Stats{}, errInvalidMeasure
	}
	if err := e.checkScheme(scheme); err != nil {
		return Result{}, Stats{}, err
	}
	var best []distPoint // a copy of the members taken last
	bestDist := math.Inf(1)
	c := collector{bound: func() float64 { return bestDist }}
	sb := x.Bound
	if sb != nil {
		c.bound = func() float64 { return min(bestDist, sb.Load()) }
	}
	c.take = func(dist float64, sel []distPoint) bool {
		if dist > bestDist || dist == bestDist && compareMembers(sel, best) >= 0 {
			x.Rec.Count(trace.CtrWindowsGated, 1) // the last distance gate
			return false
		}
		best, bestDist = append(best[:0], sel...), dist
		if sb != nil {
			sb.Tighten(dist)
		}
		return true
	}
	c.held = func() ([]distPoint, float64) { return best, bestDist }
	// The seed (DESIGN.md §19) bounds a serving search under the max measure
	// from its first anchor on, and by the lemma there it still finds a
	// group. W0's edges round; should a seeded search find none while the
	// seed was the bound in force, it runs again without one.
	seed := math.Inf(1)
	var seedAt *float64
	if measure == MeasureMax && !x.Paper {
		seedAt = &seed
	}
	stats, err := e.search(ctx, qy, scheme, c, measure, x, true, seedAt)
	if err == nil && best == nil && !math.IsInf(seed, 1) && (sb == nil || sb.Load() > seed) {
		var again Stats
		again, err = e.search(ctx, qy, scheme, c, measure, x, true, nil)
		stats.Add(again)
	}
	if err != nil {
		return Result{}, stats, err
	}
	if best == nil {
		return Result{Found: false}, stats, nil
	}
	objs := pointsOf(nil, best)
	return Result{Group: Group{Objects: objs, Dist: bestDist, Window: windowOf(qy, objs)}, Found: true}, stats, nil
}

// stopSlack widens the stop rule's limit by a few dozen ulps: items carry
// Dist2 and groups math.Hypot, so an anchor inside the bound may compute
// just outside its square. An item in the band is processed as ever.
const stopSlack = 1 + 1e-14

// gateSlack widens the bound of the geometric gates — SRR, DIP and a
// window's MINDIST, computed from squares and from window edges that round —
// so that a group exactly at the bound passes them, as the answer rule needs
// (DESIGN.md §2): a gate with slack, then the sink's exact cut. Random data
// almost never puts a window's MINDIST within 10⁻⁹ of the bound.
const gateSlack = 1 + 1e-9

// boxSlack widens the bound's box (DESIGN.md §19) as stopSlack widens the
// limit, but on lengths: an anchor the limit lets through lies within
// reach·√stopSlack of q on each axis and must find itself in its own
// region; an object with math.Hypot under the bound is nearer than that on
// both. The box's sides q ± r round at the magnitude of q, which may dwarf
// the bound's, but rounding is monotone: a coordinate inside the exact box
// is itself a float64 and so inside the rounded one.
const boxSlack = 1 + 1e-14

// pqItem is an element of the best-first priority queue: an index node
// (with the MBR recorded by its parent, so pruning needs no extra I/O)
// or a data object together with the leaf that stores it (the hook IWP
// needs).
type pqItem struct {
	dist2  float64
	isNode bool
	id     rstar.NodeID // node id, or the containing leaf for objects
	mbr    geom.Rect    // node items only
	point  geom.Point   // object items only
}

// before is the queue's order: ascending distance, then nodes (by id)
// before objects (by distLess). Being total, it does not depend on what
// else the heap holds, so a query's traced counts repeat; the answer does
// not depend on it (DESIGN.md §2).
func (a *pqItem) before(b *pqItem) bool {
	return a.dist2 < b.dist2 || a.dist2 == b.dist2 && a.tieBefore(b)
}

func (a *pqItem) tieBefore(b *pqItem) bool {
	if a.isNode || b.isNode {
		return a.isNode && (!b.isNode || a.id < b.id)
	}
	return distLess(distPoint{p: a.point}, distPoint{p: b.point})
}

// pqueue is a typed binary min-heap under before, avoiding the boxing of
// container/heap in this hot path.
type pqueue []pqItem

func (pq *pqueue) push(it pqItem) {
	*pq = append(*pq, it)
	i := len(*pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*pq)[i].before(&(*pq)[parent]) {
			break
		}
		(*pq)[parent], (*pq)[i] = (*pq)[i], (*pq)[parent]
		i = parent
	}
}

func (pq *pqueue) pop() pqItem {
	h := *pq
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*pq = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].before(&h[smallest]) {
			smallest = l
		}
		if r < len(h) && h[r].before(&h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// sink takes a window's group that passed every gate of evaluateWindows:
// its distance and its n members ascending — scratch, copied if kept. It
// reports whether it kept the group.
type sink func(dist float64, sel []distPoint) bool

// collector is what a search hands its groups to. bound returns the current
// pruning distance (the best group's for NWC, the k-th's for kNWC, +Inf
// while unset); take receives every group that passes the window-level
// gates and must refuse one beyond the bound; held, when set, returns the
// group it keeps at its distance, members ascending, and that distance.
type collector struct {
	bound func() float64
	take  sink
	held  func() ([]distPoint, float64)
}

// rival is what a group at the bound must hold to come before the group H
// held there (DESIGN.md §2). A group G before H differs from it first at
// some position i: G[i] < H[i] and G[i] is not in H, and G's window holds
// H[0..i−1] too. So the window holds H's first j members for some j ≥ i and
// an object not in H with at most j of H's members before it — a rival of
// rank ≤ j. With no group held at the bound (held nil) a group there needs
// nothing.
type rival struct {
	held []distPoint // H ascending, nil for none
	far  float64     // H's farthest member's distance
}

// gate is the bound the geometric gates test against, squared and with
// >=: b widened by gateSlack, and its square above 0, so that they keep a
// group at b.
func gate(b float64) float64 { return max(b*gateSlack, 1e-150) }

// rivalAt is the rival for bound b.
func (c collector) rivalAt(b float64) rival {
	if c.held != nil {
		if held, d := c.held(); d == b && len(held) > 0 {
			return rival{held: held, far: held[len(held)-1].d}
		}
	}
	return rival{}
}

// role is what o is to the rival: −(k+1) for H's member k, k+1 for an
// object not in H with k members before it, 0 for one after them all; most
// objects lie beyond H's farthest member, and the test inlines.
func (r *rival) role(o *distPoint) int {
	if r.held == nil || o.d > r.far {
		return 0
	}
	return r.rank(o)
}

func (r *rival) rank(o *distPoint) int {
	k := 0
	for k < len(r.held) && distLess(r.held[k], *o) {
		k++
	}
	switch {
	case k == len(r.held):
		return 0
	case r.held[k].p == o.p:
		return -(k + 1)
	}
	return k + 1
}

// ranks counts the roles of a run of points: H's members present, and the
// rivals by rank.
type ranks struct{ in, at []int }

func (t *ranks) reset(n int) {
	t.in, t.at = slices.Grow(t.in[:0], n)[:n], slices.Grow(t.at[:0], n)[:n]
	clear(t.in)
	clear(t.at)
}

func (t *ranks) add(role, by int) {
	switch {
	case role < 0:
		t.in[-role-1] += by
	case role > 0:
		t.at[role-1] += by
	}
}

// tie reports whether the run can hold a group at the bound before H: a
// rival of rank at most the length of H's prefix the run holds.
func (t *ranks) tie() bool {
	j := 0
	for j < len(t.in) && t.in[j] > 0 {
		j++
	}
	for k := 0; k <= j && k < len(t.at); k++ {
		if t.at[k] > 0 {
			return true
		}
	}
	return false
}

// tieIn reports whether the points of run with x in [xlo, xhi] can hold a
// group at the bound that comes before the held one, counting in t. It is
// asked only when the counts leave nothing else to pass.
func (r *rival) tieIn(t *ranks, run []distPoint, xlo, xhi float64) bool {
	if r.held == nil {
		return true
	}
	t.reset(len(r.held))
	for i := range run {
		if o := &run[i]; o.p.X >= xlo && o.p.X <= xhi {
			t.add(r.role(o), 1)
		}
	}
	return t.tie()
}

// avgSlack keeps MeasureAvg's counts conservative: a mean of equal distances
// can round below them, so a group at the bound may have no member within
// it, and a borderline group must never be lost.
const avgSlack = 1 + 1e-9

// countTo is the distance to which counts are taken for bound b: b, and
// under MeasureAvg b·avgSlack.
func countTo(m Measure, b float64) float64 {
	if m == MeasureAvg {
		return b * avgSlack
	}
	return b
}

// counts is what a counting pass over candidates found: all of them, those
// nearer than the bound and those within it (as far as countTo).
type counts struct{ all, below, within int }

func (t *counts) add(o distPoint, b float64, by int) {
	t.all += by
	if o.d < b {
		t.below += by
	}
	if o.d <= b {
		t.within += by
	}
}

// fails reports whether windows of candidates with counts t give no group
// of n a collector would take at bound b: none nearer than b, which needs
// need objects nearer — all n under max, one under min and avg (DESIGN.md
// §16) — and none at b, which needs need objects within it and, unless tie
// is free, a rival. Under MeasureWindow the window decides
// (evaluateWindows), but nothing is nearer than 0.
func (t counts) fails(m Measure, n int, b float64, tie bool) bool {
	need := 1
	switch m {
	case MeasureWindow:
		return b == 0 && !tie
	case MeasureMax:
		need = n
	}
	return t.below < need && (t.within < need || !tie)
}

// gates reports whether the points of run with x in [xlo, xhi], counted in
// t, give no group a collector would take at bound b, rival r.
func (t counts) gates(m Measure, n int, b float64, r *rival, rk *ranks, run []distPoint, xlo, xhi float64) bool {
	return t.fails(m, n, b, true) || t.fails(m, n, b, false) && !r.tieIn(rk, run, xlo, xhi)
}

// settledIn reports whether no window of an anchor whose region is sr (the
// plane: any anchor) can give a group a collector would take at bound b,
// rival rv (DESIGN.md §19): the objects it needs lie in the box of b and of
// the held group's farthest member, the memo holds the part of sr in it,
// and their count fails.
func settledIn(sr geom.Rect, q geom.Point, m Measure, n int, b float64, rv rival, sc *searchScratch) bool {
	memo := &sc.memo
	cl := countTo(m, b)
	r := cl
	if rv.held != nil {
		r = max(r, rv.far)
	}
	r *= boxSlack
	in := sr.Intersection(geom.RectAround(q).Buffer(r, r))
	if !memo.have.ContainsRect(in) {
		return false
	}
	band := memo.band(in)
	return tally(band, in.MinX, in.MaxX, cl).gates(m, n, b, &rv, &sc.rk, band, in.MinX, in.MaxX)
}

// tally counts the points of cand with x in [xlo, xhi] against bound b.
func tally(cand []distPoint, xlo, xhi, b float64) (t counts) {
	for i := range cand {
		if o := &cand[i]; o.p.X >= xlo && o.p.X <= xhi {
			t.add(*o, b, 1)
		}
	}
	return t
}

// search drives the shared NWC/kNWC traversal over the collector c.
//
// All accounting goes onto the returned Stats, a carrier owned by this
// one query: node visits are counted by a per-query tree Reader (which
// also keeps the index-wide cumulative atomic total exact), so
// concurrent searches never share a mutable counter. The reader also
// checks ctx before every node read, and search checks it before every
// anchor — one the window memo serves reads no node — giving
// cancellation per node visit or anchor, whichever comes first.
//
// Unless x.Paper the search ends at the first item popped beyond
// measure.anchorReach of the bound (DESIGN.md §19). single says the caller
// keeps one best group under a bound that only falls (NWC): then nothing
// beyond the reach is queued either, and under MeasureMax each anchor's
// search region is cut to the box the group lies in. Otherwise an anchor
// is dropped before any read when the memo holds what settledIn counts and
// the count fails, and a single group with no reach ends there.
//
// seed, when non-nil (a single best group under MeasureMax, never the
// paper's execution), receives the seed: the first anchor reads W0, the
// l × w window centred on q, and when it holds n objects their distance
// bounds every pruning decision from then on. It is not a group: take never
// sees it, and it does not reach x.Bound.
func (e *Engine) search(ctx context.Context, qy Query, scheme Scheme, c collector, measure Measure, x Exec, single bool, seed *float64) (Stats, error) {
	if seed != nil {
		local := c.bound
		c.bound = func() float64 { return min(local(), *seed) }
	}
	bound := c.bound
	var st Stats
	q, l, w, n := qy.Q, qy.L, qy.W, qy.N
	rec := x.Rec
	r := e.tree.Reader(ctx, &st.NodeVisits).WithTrace(rec).WithBound(x.Bound)

	// Working memory (heap, candidate buffer, selection scratch) is
	// borrowed from a pool: under batch load the steady state allocates
	// none of it per query.
	sc := getScratch()
	defer putScratch(sc)
	pq := &sc.pq
	rec.Enter(trace.PhaseDescent)
	root, err := r.Node(e.tree.Root())
	if err != nil {
		return st, err
	}
	rootMBR := root.MBR()
	pq.push(pqItem{dist2: rootMBR.MinDist2(q), isNode: true, id: e.tree.Root(), mbr: rootMBR})

	// A pool's anchor may lie a window's diagonal beyond the bound, and the
	// window's edges, p.X ± l and o.Y ± w, half an ulp of a coordinate off.
	pad := math.Hypot(l, w) + 1e-15*(math.Abs(q.X)+math.Abs(q.Y)+l+w)
	stop, reach, lim2 := !x.Paper, math.Inf(1), math.Inf(1)
	var settled struct {
		b    float64
		far  distPoint
		have geom.Rect
	}
	for len(*pq) > 0 {
		it := pq.pop()
		if stop {
			reach = measure.anchorReach(bound(), pad, single)
			if lim2 = reach * reach * stopSlack; it.dist2 > lim2 {
				rec.Count(trace.CtrStoppedAtBound, 1)
				break
			}
		}
		if it.isNode {
			b := gate(bound())
			// DIP (Section 3.3.2): prune the node when no object inside
			// its MBR can generate a window under the bound. The MBR came
			// from the parent, so pruning costs no node visit.
			if scheme.DIP() && !math.IsInf(b, 1) &&
				geom.NodeWindowLowerBound2(q, it.mbr, l, w) >= b*b {
				st.NodesPruned++
				rec.Count(trace.CtrDIPPruned, 1)
				continue
			}
			// DEP node pruning (Section 3.3.3): extend the MBR to cover
			// every window its objects can generate; if the density grid
			// bounds the extended region's population below n, no object
			// inside can generate a qualified window.
			if scheme.DEP() {
				st.GridProbes++
				if e.density.PrunesRect(geom.ExtendMBR(q, it.mbr, l, w), n) {
					st.NodesPruned++
					rec.Count(trace.CtrDEPPrunedNodes, 1)
					continue
				}
			}
			node, err := r.Node(it.id)
			if err != nil {
				return st, err
			}
			// An entry beyond lim2 is dead on arrival, unless the bound can rise.
			had := len(*pq)
			if node.Leaf {
				for _, p := range node.Points {
					if d2 := p.Dist2(q); d2 <= lim2 || !single {
						pq.push(pqItem{dist2: d2, id: node.ID, point: p})
					}
				}
			} else {
				for i, r := range node.Rects {
					if d2 := r.MinDist2(q); d2 <= lim2 || !single {
						pq.push(pqItem{dist2: d2, isNode: true, id: node.Children[i], mbr: r})
					}
				}
			}
			rec.Count(trace.CtrNeverQueued, int64(had+node.Len()-len(*pq)))
			rec.Heap(len(*pq))
			continue
		}

		// Object item: generate and evaluate its candidate windows, unless a
		// single group with no reach is settled.
		if b := bound(); stop && single && math.IsInf(reach, 1) {
			rv, far := c.rivalAt(b), distPoint{d: -1}
			if rv.held != nil {
				far = rv.held[len(rv.held)-1]
			}
			if b != settled.b || far != settled.far || sc.memo.have != settled.have {
				if settledIn(geom.RectAround(q).Buffer(math.Inf(1), math.Inf(1)), q, measure, n, b, rv, sc) {
					rec.Count(trace.CtrStoppedAtBound, 1)
					break
				}
				settled.b, settled.far, settled.have = b, far, sc.memo.have // ask again when one moves
			}
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		st.ObjectsProcessed++
		if seed != nil && st.ObjectsProcessed == 1 {
			rec.Enter(trace.PhaseWindowEnum)
			if *seed, err = e.seedMemo(r, scheme.IWP(), it.id, qy, sc); err != nil {
				return st, err
			}
			reach = measure.anchorReach(bound(), pad, single)
		}
		rec.Enter(trace.PhaseSRR)
		p := it.point
		var sr geom.Rect
		if scheme.SRR() {
			// SRR (Section 3.3.1): skip the object when no window it
			// generates is under the bound; otherwise shrink SR_p.
			b := bound()
			sr = geom.ShrinkSearchRegion(q, p, l, w, gate(b))
			if sr.IsEmpty() {
				st.ObjectsSkipped++
				rec.Count(trace.CtrSRRSkips, 1)
				rec.Enter(trace.PhaseDescent)
				continue
			}
			if !math.IsInf(b, 1) {
				rec.Count(trace.CtrSRRShrinks, 1)
			}
		} else {
			sr = geom.SearchRegion(q, p, l, w)
		}
		// The bound's box: objects outside it are farther than the bound,
		// and no window needs them to find a group under it.
		if single && !math.IsInf(reach, 1) {
			r := reach * boxSlack
			if in := sr.Intersection(geom.RectAround(q).Buffer(r, r)); in != sr {
				sr = in
				rec.Count(trace.CtrClipped, 1)
			}
		} else if b := bound(); stop && !math.IsInf(b, 1) && settledIn(sr, q, measure, n, b, c.rivalAt(b), sc) {
			rec.Count(trace.CtrAnchorsGated, 1)
			rec.Enter(trace.PhaseDescent)
			continue
		}
		// DEP window-query cancellation: a search region that cannot
		// hold n objects generates no qualified window.
		if scheme.DEP() {
			st.GridProbes++
			if e.density.PrunesRect(sr, n) {
				st.ObjectsSkipped++
				rec.Count(trace.CtrDEPSkippedObjects, 1)
				rec.Enter(trace.PhaseDescent)
				continue
			}
		}
		st.WindowQueries++
		rec.Enter(trace.PhaseWindowEnum)
		cand, ordered, err := e.anchorCandidates(r, scheme.IWP(), it.id, sr, qy, x.Paper, sc)
		if err != nil {
			return st, err
		}
		rec.Enter(trace.PhaseVerify)
		evaluateWindows(qy, p, cand, sr.MinX, sr.MaxX, ordered, sc, measure, c, x.Paper, &st, rec)
		rec.Enter(trace.PhaseDescent)
	}
	return st, nil
}

// evaluateWindows enumerates the candidate windows generated by anchor
// object p from its candidates — the points of cand with x in [xlo, xhi],
// which are the indexed points of p's search region; its x-interval is
// the one every window of p shares, so each of them can be window
// contents or a horizontal anchor — following Section 3.2: p sits on the
// quadrant-appropriate vertical edge and each candidate object on the
// appropriate horizontal edge. cand is in yOrder when ordered says so (a
// run of the memo) and is sorted into it otherwise. A sliding two-pointer
// over the y-ordered candidates maintains, in amortised constant time per
// window, the window's counts against the bound (counts).
//
// Those counts gate selection (DESIGN.md §16): a window whose counts fail
// is skipped without selecting anything, and an anchor whose candidates as
// a whole fail is dropped on a counting pass over cand, before they are
// even copied out of it or sorted. Distances come from q.Dist, the
// function groupDist uses, so the counts need no slack but avg's rounding
// (countTo), and take, the authority on what it keeps, cuts exactly.
//
// Unless paper, a window whose n nearest are those of the last window
// handed to take is skipped too: the same group at the same distance, which
// either sink has just refused or holds — under MeasureWindow, where the
// distance is the window's, when it is no nearer than that window (sameM2).
//
// A window that passes every gate takes its n nearest from one distance
// order of the candidates' positions, built at the anchor's first such
// window: they are the first n positions of that order inside the window.
func evaluateWindows(qy Query, p geom.Point, cand []distPoint, xlo, xhi float64, ordered bool, sc *searchScratch, measure Measure, c collector, paper bool, st *Stats, rec *trace.Recorder) {
	q, l, w, n := qy.Q, qy.L, qy.W, qy.N
	// cb is the bound the counts below are taken against, cl how far they
	// take objects.
	cb := c.bound()
	cl, r := countTo(measure, cb), c.rivalAt(cb)
	// Every window of this anchor draws its contents from the candidates,
	// so when they as a whole fail the test no window can pass it: skip
	// the copy and the sort.
	slab := tally(cand, xlo, xhi, cl)
	rec.Candidates(slab.all)
	if slab.all < n {
		return
	}
	if slab.gates(measure, n, cb, &r, &sc.rk, cand, xlo, xhi) {
		rec.Count(trace.CtrAnchorsGated, 1)
		return
	}
	// cand may be sc.slab itself (a bypassed anchor's own range query);
	// the copy then runs in place, each write at or behind its read.
	s := sc.slab[:0]
	for _, o := range cand {
		if o.p.X >= xlo && o.p.X <= xhi {
			s = append(s, o)
		}
	}
	sc.slab = s
	if !ordered {
		slices.SortFunc(s, yOrder)
	}
	// Top anchors' windows slide up from p, bottom anchors' down.
	top := geom.AnchorsTopEdge(q, p)
	if !top {
		slices.Reverse(s)
	}
	var ord []int32 // s's positions in distance order, once a window needs it
	gated, repeated := int64(0), int64(0)
	var in counts // of the current window s[lo..i]
	// A window's rivals are counted only once one asks for a tie: then the
	// roles of s's points (sc.role) and their ranks over s[lo..i] (sc.rk).
	var roles []int32
	rk := &sc.rk
	tie := func(lo, i int) bool {
		if r.held == nil {
			return true
		}
		if roles == nil {
			roles = sc.roles(s, &r)
			rk.reset(len(r.held))
			for k := lo; k <= i; k++ {
				rk.add(int(roles[k]), 1)
			}
		}
		return rk.tie()
	}
	lo := 0
	// far is the farthest member of the last window handed to take; while
	// none at or under it has left and none under it entered, same holds.
	far, same, sameM2 := distPoint{}, false, 0.0
	for i, o := range s {
		if in.add(o, cl, 1); roles != nil {
			rk.add(int(roles[i]), 1)
		}
		if same && distLess(o, far) {
			same = false
		}
		// Horizontal anchors on the wrong side of p generate windows
		// that would not contain p; skip them (Section 3.2).
		if top && o.p.Y < p.Y || !top && o.p.Y > p.Y {
			continue
		}
		// Partners sharing a y coordinate generate the same window;
		// evaluate it only at the last duplicate, where the content
		// prefix s[lo..i] is complete. Evaluating earlier would emit
		// groups that are not the window's n closest objects.
		if i+1 < len(s) && s[i+1].p.Y == o.p.Y {
			continue
		}
		// Window y-interval: [o.Y-w, o.Y] for top anchors, [o.Y, o.Y+w]
		// for bottom anchors. Contents are s[lo..i].
		for top && s[lo].p.Y < o.p.Y-w || !top && s[lo].p.Y > o.p.Y+w {
			if in.add(s[lo], cl, -1); roles != nil {
				rk.add(int(roles[lo]), -1)
			}
			if same && !distLess(far, s[lo]) {
				same = false
			}
			lo++
		}
		st.CandidateWindows++
		if i-lo+1 < n {
			continue
		}
		st.QualifiedWindows++
		// The bound moves when a group is kept — for kNWC's k-th
		// distance in either direction — and, under a SharedBound, at
		// any moment; recount the window against the value in force.
		b := c.bound()
		if b != cb {
			cb, cl, r, in = b, countTo(measure, b), c.rivalAt(b), counts{}
			for k := lo; k <= i; k++ {
				in.add(s[k], cl, 1)
			}
			roles = nil
		}
		if in.fails(measure, n, cb, true) || in.fails(measure, n, cb, false) && !tie(lo, i) {
			gated++
			continue
		}
		win := geom.CandidateWindow(q, p, o.p, l, w)
		m2 := win.MinDist2(q)
		if same && (measure != MeasureWindow || m2 >= sameM2) {
			repeated++
			continue
		}
		if gb := gate(b); !math.IsInf(b, 1) &&
			(m2 >= gb*gb || measure == MeasureWindow && m2 >= b*b && !tie(lo, i)) {
			gated++
			continue
		}
		if ord == nil {
			ord = sc.distOrder(s)
		}
		sel := nearestIn(s, ord, lo, i, n, sc.sel[:0])
		sc.sel = sel
		far, same, sameM2 = sel[n-1], !paper, m2
		if c.take(selDist(q, sel, win, measure), sel) {
			rec.Count(trace.CtrGroupsEmitted, 1)
			cb = math.NaN() // the held group moved: recount, with its rival
		}
	}
	rec.Count(trace.CtrWindowsGated, gated)
	rec.Count(trace.CtrWindowsRepeated, repeated)
}

// nearestIn appends to dst the first n positions of ord that lie in
// [lo, hi]: with ord the positions of s in distance order, the n nearest
// points of s[lo..hi], ascending — selectClosest's n, without a copy.
func nearestIn(s []distPoint, ord []int32, lo, hi, n int, dst []distPoint) []distPoint {
	for _, k := range ord {
		if int(k) >= lo && int(k) <= hi {
			if dst = append(dst, s[k]); len(dst) == n {
				break
			}
		}
	}
	return dst
}
