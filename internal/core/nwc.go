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

// NWC answers query qy with the given scheme and measure. It
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
// Sharing is sound for the single-best NWC search because the cell is
// monotone non-increasing and always at least the final global best B:
// a group pruned against it has distance ≥ B, so only non-answers are
// skipped, and the search that discovers the globally best group can
// never see a cell value below that group's distance before emitting
// it (every other group is at least as far). The result's Found/Dist
// therefore still describe the best group over this engine's own data,
// except that groups at distance ≥ the global bound may be elided —
// exactly the ones a scatter-gather merge discards anyway. See
// DESIGN.md §12.
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
	best := Group{Dist: math.Inf(1)}
	found := false
	bound := func() float64 { return best.Dist }
	sb := x.Bound
	if sb != nil {
		bound = func() float64 { return min(best.Dist, sb.Load()) }
	}
	take := func(dist float64, sel []distPoint, win geom.Rect) bool {
		if dist >= best.Dist {
			x.Rec.Count(trace.CtrWindowsGated, 1) // the last distance gate
			return false
		}
		best, found = Group{Objects: pointsOf(nil, sel), Dist: dist, Window: win}, true
		if sb != nil {
			sb.Tighten(dist)
		}
		return true
	}
	// The seed (DESIGN.md §19) bounds a serving search under the max measure
	// from its first anchor on, and by the lemma there it still finds a
	// group. W0's edges round; should a seeded search find none while the
	// seed was the bound in force, it runs again without one.
	seed := math.Inf(1)
	var seedAt *float64
	if measure == MeasureMax && !x.Paper {
		seedAt = &seed
	}
	stats, err := e.search(ctx, qy, scheme, bound, take, measure, x, true, seedAt)
	if err == nil && !found && !math.IsInf(seed, 1) && (sb == nil || sb.Load() >= seed) {
		var again Stats
		again, err = e.search(ctx, qy, scheme, bound, take, measure, x, true, nil)
		stats.Add(again)
	}
	if err != nil {
		return Result{}, stats, err
	}
	if !found {
		return Result{Found: false}, stats, nil
	}
	return Result{Group: best, Found: true}, stats, nil
}

// stopSlack widens the stop rule's limit by a few dozen ulps: items carry
// Dist2 and groups math.Hypot, so an anchor inside the bound may compute
// just outside its square. An item in the band is processed as ever.
const stopSlack = 1 + 1e-14

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
// else the heap holds: the stop rule leaves far items out, and equidistant
// anchors must still come in the paper execution's order (DESIGN.md §19).
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

// sink takes a window that passed every gate of evaluateWindows: its
// group's distance, the n members in ascending distOrder — scratch, to be
// copied if kept — and the window. It reports whether it kept the group.
type sink func(dist float64, sel []distPoint, win geom.Rect) bool

// search drives the shared NWC/kNWC traversal. bound returns the current
// pruning distance (the distance of the best group for NWC, of the k-th
// group for kNWC, +Inf while unset); take receives every candidate group
// that passes the window-level gates, in discovery order, and must refuse
// one at or beyond the bound.
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
// beyond the reach is queued either, and each anchor's search region is
// cut to the box the group lies in. A pool of distinct groups (kNWC), whose
// bound can rise, gets neither; but under MeasureMax an anchor the memo
// shows to have under n objects in that box is dropped before any read.
//
// seed, when non-nil (a single best group under MeasureMax, never the
// paper's execution), receives the seed: the first anchor reads W0, the
// l × w window centred on q, and when it holds n objects their distance,
// an ulp up, bounds every pruning decision from then on. It is not a
// group: take never sees it, and it does not reach x.Bound.
func (e *Engine) search(ctx context.Context, qy Query, scheme Scheme, bound func() float64, take sink, measure Measure, x Exec, single bool, seed *float64) (Stats, error) {
	if seed != nil {
		local := bound
		bound = func() float64 { return min(local(), *seed) }
	}
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
			b := bound()
			// DIP (Section 3.3.2): prune the node when no object inside
			// its MBR can generate a window closer than the bound. The
			// MBR came from the parent, so pruning costs no node visit.
			if scheme.DIP && !math.IsInf(b, 1) &&
				geom.NodeWindowLowerBound2(q, it.mbr, l, w) >= b*b {
				st.NodesPruned++
				rec.Count(trace.CtrDIPPruned, 1)
				continue
			}
			// DEP node pruning (Section 3.3.3): extend the MBR to cover
			// every window its objects can generate; if the density grid
			// bounds the extended region's population below n, no object
			// inside can generate a qualified window.
			if scheme.DEP {
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

		// Object item: generate and evaluate its candidate windows.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		st.ObjectsProcessed++
		if seed != nil && st.ObjectsProcessed == 1 {
			rec.Enter(trace.PhaseWindowEnum)
			if *seed, err = e.seedMemo(r, scheme.IWP, it.id, qy, sc); err != nil {
				return st, err
			}
			reach = measure.anchorReach(bound(), pad, single)
		}
		rec.Enter(trace.PhaseSRR)
		p := it.point
		var sr geom.Rect
		if scheme.SRR {
			// SRR (Section 3.3.1): skip the object when every window it
			// generates is at least bound away; otherwise shrink SR_p.
			b := bound()
			sr = geom.ShrinkSearchRegion(q, p, l, w, b)
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
		} else if b := bound(); !single && stop && measure == MeasureMax && !math.IsInf(b, 1) {
			// A pool needs the region whole — a partner outside the box still
			// defines a distinct set — but not if the box holds under n points.
			r := b * boxSlack
			if in := sr.Intersection(geom.RectAround(q).Buffer(r, r)); sc.memo.have.ContainsRect(in) {
				if _, under := countUnder(sc.memo.band(in), in.MinX, in.MaxX, b); under < n {
					rec.Count(trace.CtrAnchorsGated, 1)
					rec.Enter(trace.PhaseDescent)
					continue
				}
			}
		}
		// DEP window-query cancellation: a search region that cannot
		// hold n objects generates no qualified window.
		if scheme.DEP {
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
		cand, ordered, err := e.anchorCandidates(r, scheme.IWP, it.id, sr, qy, x.Paper, sc)
		if err != nil {
			return st, err
		}
		rec.Enter(trace.PhaseVerify)
		evaluateWindows(qy, p, cand, sr.MinX, sr.MaxX, ordered, sc, measure, bound, take, x.Paper, &st, rec)
		rec.Enter(trace.PhaseDescent)
	}
	return st, nil
}

// countUnder returns how many points of cand have x in [xlo, xhi], and how
// many of those lie nearer than b.
func countUnder(cand []distPoint, xlo, xhi, b float64) (count, under int) {
	for i := range cand {
		if o := &cand[i]; o.p.X >= xlo && o.p.X <= xhi {
			count++
			if o.d < b {
				under++
			}
		}
	}
	return count, under
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
// window, the window's population and how many of its objects lie
// strictly under the pruning bound.
//
// That second count gates selection (DESIGN.md §16): a window's group can
// beat the bound only if at least `need` of its objects are under it — all
// n for MeasureMax, one for MeasureMin and MeasureAvg — so a window failing
// the test is skipped without selecting anything, and an anchor whose
// candidates as a whole fail it is dropped on a counting pass over cand,
// before they are even copied out of it or sorted. Distances come from
// q.Dist, the function groupDist uses, which makes the test a strict
// necessary condition of groupDist < bound: it needs no slack and never
// drops an improving group, and take stays the authority on what improves.
//
// Unless paper, a window whose n nearest are those of the last window
// handed to take is skipped too: the same group at the same distance, which
// either sink has just refused or holds — except under MeasureWindow, where
// the distance is the window's.
//
// A window that passes every gate takes its n nearest from one distance
// order of the candidates' positions, built at the anchor's first such
// window: they are the first n positions of that order inside the window.
func evaluateWindows(qy Query, p geom.Point, cand []distPoint, xlo, xhi float64, ordered bool, sc *searchScratch, measure Measure, bound func() float64, take sink, paper bool, st *Stats, rec *trace.Recorder) {
	q, l, w, n := qy.Q, qy.L, qy.W, qy.N
	need := 0 // MeasureWindow: object distances never enter the group distance
	switch measure {
	case MeasureMax:
		need = n
	case MeasureMin, MeasureAvg:
		need = 1
	}
	cb := bound() // the bound the under-counts below are taken against
	// Every window of this anchor draws its contents from the candidates,
	// so when they as a whole fail the test no window can pass it: skip
	// the copy and the sort.
	count, slabUnder := countUnder(cand, xlo, xhi, cb)
	rec.Candidates(count)
	if count < n {
		return
	}
	if slabUnder < need {
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
	// MeasureAvg has no counting test as sharp as its group distance, so
	// it also tracks the window's distances in an order-statistic tree
	// and gates on the exact mean of the n smallest.
	var fen *distStats
	var ranks []int
	if measure == MeasureAvg {
		fen = &sc.fen
		fen.reset(s)
		ranks = sc.ints(len(s))
		for i, o := range s {
			ranks[i] = fen.rankOf(o.d)
		}
	}
	// avgSlack keeps the order-statistic gate conservative: its sum and
	// groupDist's add the same distances in different orders, so the two
	// may differ by a few ulps, and a borderline group must never be lost.
	const avgSlack = 1 + 1e-9

	var ord []int32 // s's positions in distance order, once a window needs it
	gated, repeated := int64(0), int64(0)
	under := 0 // objects of the current window s[lo..i] with d < cb
	lo := 0
	// far is the farthest member of the last window handed to take; while
	// none at or under it has left and none under it entered, same holds.
	far, same := distPoint{}, false
	for i, o := range s {
		if o.d < cb {
			under++
		}
		if same && distLess(o, far) {
			same = false
		}
		if fen != nil {
			fen.add(ranks[i])
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
			if s[lo].d < cb {
				under--
			}
			if same && !distLess(far, s[lo]) {
				same = false
			}
			if fen != nil {
				fen.remove(ranks[lo])
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
		b := bound()
		if b != cb {
			cb, under = b, 0
			for _, c := range s[lo : i+1] {
				if c.d < cb {
					under++
				}
			}
		}
		if under < need {
			gated++
			continue
		}
		if same {
			repeated++
			continue
		}
		win := geom.CandidateWindow(q, p, o.p, l, w)
		if !math.IsInf(b, 1) &&
			(win.MinDist2(q) >= b*b || fen != nil && fen.sumSmallest(n)/float64(n) > b*avgSlack) {
			gated++
			continue
		}
		if ord == nil {
			ord = sc.distOrder(s)
		}
		sel := nearestIn(s, ord, lo, i, n, sc.sel[:0])
		sc.sel = sel
		far, same = sel[n-1], !paper && measure != MeasureWindow
		if take(selDist(q, sel, win, measure), sel, win) {
			rec.Count(trace.CtrGroupsEmitted, 1)
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
