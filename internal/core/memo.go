package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"nwcq/internal/geom"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// windowMemo is what one query's window queries have fetched so far:
// exactly the indexed points of one closed rectangle, each once, in
// (Y, X, ID) order and paired with its distance to the query point. In a
// hot spot the search region of the next anchor overlaps the last one's
// almost entirely, so an anchor whose region lies inside have is answered
// from pts without reading a node, and one that sticks out fetches only
// the strips that turn have into the bounding box of both (DESIGN.md §18).
type windowMemo struct {
	have geom.Rect   // the closed rectangle fetched; empty until the first growth
	pts  []distPoint // every indexed point inside have, in yOrder
}

const (
	// memoWaste bounds what a growth may fetch beyond what was asked:
	// when the strips cover more than memoWaste times the area of the
	// anchor's own region, the anchor runs its own range query and the
	// memo stays as it is. A constant, not an option: any value gives the
	// same answers, and the benchmark's node visits are flat from 2 up.
	memoWaste = 3
	// memoSpan stops growth at memoSpan unshrunk search regions (l × 2w)
	// a side. An anchor served from the memo scans a y-band as wide as
	// the memo, up to memoSpan times its own candidates, and a query no
	// bound ever stops (plain NWC, IWP alone, no qualified window) walks
	// the whole dataset: past this width the scan costs more than the
	// range query it replaces. Measured (DESIGN.md §18): at 4 an unpruned
	// query takes what it takes per anchor with 18, 72 and 288 candidates
	// a region, at 6 it takes 9% more and at 8 35% more (288 a region),
	// and the benchmark's node visits are within 2% of an unbounded
	// memo's from 4 up.
	memoSpan = 4
)

func (m *windowMemo) reset() {
	m.have = geom.EmptyRect()
	m.pts = m.pts[:0]
}

// yOrder is the memo's order of points: by y, then x, then ID. It is total,
// so a run cut from the memo arrives in one order however it was fetched.
func yOrder(a, b distPoint) int {
	switch {
	case a.p.Y != b.p.Y:
		return cmp.Compare(a.p.Y, b.p.Y)
	case a.p.X != b.p.X:
		return cmp.Compare(a.p.X, b.p.X)
	}
	return cmp.Compare(a.p.ID, b.p.ID)
}

// band returns the memo's points between sr's y bounds, in yOrder: those
// inside sr are the ones among them whose x lies between its x bounds. sr
// must lie inside have. The result aliases pts and is valid until the next
// growth.
func (m *windowMemo) band(sr geom.Rect) []distPoint {
	b := m.pts[sort.Search(len(m.pts), func(i int) bool { return m.pts[i].p.Y >= sr.MinY }):]
	return b[:sort.Search(len(b), func(i int) bool { return b[i].p.Y > sr.MaxY })]
}

// strips returns the rectangles whose points turn have into the bounding
// box of have and sr, in fetch order: left and right at have's height,
// then bottom and top at the new width. Each strip shares a whole side
// with what precedes it, so the fetched region is a rectangle after every
// one of them. The shared side belongs to both, which is why a strip's
// range query drops the points of the rectangle fetched before it.
func (m *windowMemo) strips(sr geom.Rect) (out [4]geom.Rect, n int) {
	h := m.have
	if h.IsEmpty() {
		out[0] = sr
		return out, 1
	}
	if sr.MinX < h.MinX {
		out[n] = geom.Rect{MinX: sr.MinX, MinY: h.MinY, MaxX: h.MinX, MaxY: h.MaxY}
		h.MinX = sr.MinX
		n++
	}
	if sr.MaxX > h.MaxX {
		out[n] = geom.Rect{MinX: h.MaxX, MinY: h.MinY, MaxX: sr.MaxX, MaxY: h.MaxY}
		h.MaxX = sr.MaxX
		n++
	}
	if sr.MinY < h.MinY {
		out[n] = geom.Rect{MinX: h.MinX, MinY: sr.MinY, MaxX: h.MaxX, MaxY: h.MinY}
		n++
	}
	if sr.MaxY > h.MaxY {
		out[n] = geom.Rect{MinX: h.MinX, MinY: h.MaxY, MaxX: h.MaxX, MaxY: sr.MaxY}
		n++
	}
	return out, n
}

// merge sorts add into yOrder and folds it into pts, from the back so that
// a growth upwards moves nothing.
func (m *windowMemo) merge(add []distPoint) {
	slices.SortFunc(add, yOrder)
	i, j := len(m.pts)-1, len(add)-1
	m.pts = append(m.pts, add...)
	for w := len(m.pts) - 1; j >= 0; w-- {
		if i >= 0 && yOrder(m.pts[i], add[j]) > 0 {
			m.pts[w] = m.pts[i]
			i--
		} else {
			m.pts[w] = add[j]
			j--
		}
	}
}

// rangeQuery appends to dst every indexed point of rect that is not
// inside have, with its distance to q: one window query, IWP's from the
// anchor's leaf or the traditional one from the root. It is the only
// place a query's window queries reach the index.
func (e *Engine) rangeQuery(r rstar.Reader, viaIWP bool, leaf rstar.NodeID, rect, have geom.Rect, q geom.Point, dst []distPoint) ([]distPoint, error) {
	collect := func(c geom.Point) bool {
		if !have.ContainsPoint(c) {
			dst = append(dst, distPoint{p: c, d: q.Dist(c)})
		}
		return true
	}
	var err error
	if viaIWP {
		err = e.iwpIdx.WindowQuery(r, leaf, rect, collect)
	} else {
		err = r.Search(rect, collect)
	}
	return dst, err
}

// seedMemo grows the empty memo by W0, the l × w window centred on q, read
// from the first anchor's leaf, and returns the seed it gives (DESIGN.md
// §19 "The seed"): when W0 holds n points whose n nearest fit a window,
// the seed is their distance; otherwise it is +Inf. A seed
// cuts what the memo keeps to its box, as it cuts every anchor's region.
func (e *Engine) seedMemo(r rstar.Reader, viaIWP bool, leaf rstar.NodeID, qy Query, sc *searchScratch) (float64, error) {
	m, q, n := &sc.memo, qy.Q, qy.N
	w0 := geom.RectAround(q).Buffer(qy.L/2, qy.W/2)
	got, err := e.rangeQuery(r, viaIWP, leaf, w0, m.have, q, sc.slab[:0])
	sc.slab = got
	if err != nil {
		return math.Inf(1), err
	}
	r.Recorder().Count(trace.CtrMemoStrips, 1)
	seed := math.Inf(1)
	if len(got) >= n {
		quickselect(got, n)
		// The lemma needs them to fit a window as the search tests it, by
		// p.X ± l and o.Y ± w; W0's own edges q ± l/2 round, so they may not.
		b := geom.RectAround(got[0].p)
		for _, o := range got[1:n] {
			b = b.ExtendPoint(o.p)
		}
		if b.MaxX <= b.MinX+qy.L && b.MinX >= b.MaxX-qy.L && b.MaxY <= b.MinY+qy.W && b.MinY >= b.MaxY-qy.W {
			seed = slices.MaxFunc(got[:n], distCompare).d
		}
		// The gates compare squares: a seed whose square is subnormal is none.
		if seed*seed < 0x1p-1022 {
			seed = math.Inf(1)
		}
	}
	m.have = w0
	if !math.IsInf(seed, 1) {
		b := seed * boxSlack
		m.have = w0.Intersection(geom.RectAround(q).Buffer(b, b))
		got = slices.DeleteFunc(got, func(c distPoint) bool { return !m.have.ContainsPoint(c.p) })
	}
	m.merge(got)
	return seed, nil
}

// worthGrowing reports whether an anchor of an l × w query whose region sr
// sticks out of the memo should grow it rather than run its own range
// query.
func (m *windowMemo) worthGrowing(sr geom.Rect, l, w float64) bool {
	u := m.have.Union(sr)
	return u.Width() <= memoSpan*l && u.Height() <= memoSpan*2*w &&
		u.Area()-m.have.Area() <= memoWaste*sr.Area()
}

// anchorCandidates returns a run of points in which the indexed points of
// the anchor's search region sr are those with x inside sr's x bounds,
// each of them once, and whether the run is in yOrder; it is valid until
// the next call. The memo serves the region, in its order, when it holds
// it and is grown to hold it when that is cheap; otherwise — and always
// under perAnchor, Algorithm 1's one window query per anchor — the region
// is read from the index as it is, in no order, and the memo is left
// alone. What a range query reads is staged in sc.slab, which no anchor
// is using at this point: a growth's strips until they are merged, a
// bypassed anchor's region until evaluateWindows has looked at it (the
// run then aliases sc.slab).
func (e *Engine) anchorCandidates(r rstar.Reader, viaIWP bool, leaf rstar.NodeID, sr geom.Rect, qy Query, perAnchor bool, sc *searchScratch) (cand []distPoint, ordered bool, err error) {
	m, q := &sc.memo, qy.Q
	rec := r.Recorder()
	if !perAnchor {
		if m.have.ContainsRect(sr) {
			rec.Count(trace.CtrMemoServed, 1)
			return m.band(sr), true, nil
		}
		if m.worthGrowing(sr, qy.L, qy.W) {
			strips, n := m.strips(sr)
			sc.slab = sc.slab[:0]
			for _, strip := range strips[:n] {
				if sc.slab, err = e.rangeQuery(r, viaIWP, leaf, strip, m.have, q, sc.slab); err != nil {
					return nil, false, err
				}
				m.have = m.have.Union(strip)
			}
			m.merge(sc.slab)
			rec.Count(trace.CtrMemoStrips, int64(n))
			return m.band(sr), true, nil
		}
	}
	rec.Count(trace.CtrMemoBypassed, 1)
	sc.slab, err = e.rangeQuery(r, viaIWP, leaf, sr, geom.EmptyRect(), q, sc.slab[:0])
	return sc.slab, false, err
}
