package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// randRect produces a rectangle with corners in [-100, 100].
func randRect(r *rand.Rand) Rect {
	return NewRect(
		r.Float64()*200-100, r.Float64()*200-100,
		r.Float64()*200-100, r.Float64()*200-100,
	)
}

func randPoint(r *rand.Rand) Point {
	return Point{X: r.Float64()*200 - 100, Y: r.Float64()*200 - 100}
}

// TestBounds: the bounding box, padded by 1 where an extent is zero, the
// unit square for no points, and an error for a non-finite coordinate.
func TestBounds(t *testing.T) {
	for _, c := range []struct {
		pts  []Point
		want Rect
	}{
		{nil, NewRect(0, 0, 1, 1)},
		{[]Point{{X: 3, Y: 4}}, NewRect(2, 3, 4, 5)},
		{[]Point{{X: 3, Y: 4}, {X: 7, Y: 4}}, NewRect(2, 3, 8, 5)},
		{[]Point{{X: 3, Y: 4}, {X: 7, Y: 9}}, NewRect(3, 4, 7, 9)},
	} {
		if got, err := Bounds(c.pts); err != nil || got != c.want {
			t.Errorf("Bounds(%v) = %v, %v; want %v", c.pts, got, err, c.want)
		}
	}
	for _, p := range []Point{{X: math.NaN()}, {Y: math.Inf(-1)}} {
		if _, err := Bounds([]Point{{X: 1, Y: 1}, p}); err == nil {
			t.Errorf("Bounds accepted %v", p)
		}
	}
}

// foldBounds is Bounds as a fold of ExtendPoint: the reference its
// direct comparisons must match bit for bit.
func foldBounds(points []Point) (Rect, error) {
	r := EmptyRect()
	for i, p := range points {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return Rect{}, fmt.Errorf("point %d has non-finite coordinates", i)
		}
		r = r.ExtendPoint(p)
	}
	if r.IsEmpty() {
		return NewRect(0, 0, 1, 1), nil
	}
	if r.Width() <= 0 || r.Height() <= 0 {
		r = r.Buffer(1, 1)
	}
	return r, nil
}

// TestBoundsMatchesExtendPointFold: Bounds gives the ExtendPoint fold's
// box by math.Float64bits — the sign of every zero included — and its
// error, for signed zeros in every order, one point, a zero extent, and
// a NaN or an infinity at each index.
func TestBoundsMatchesExtendPointFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zeros := []float64{0, negZero}
	cases := map[string][]Point{
		"none":       nil,
		"one":        {{X: 3, Y: -4}},
		"one -0":     {{X: negZero, Y: negZero}},
		"zero width": {{X: 2, Y: 1}, {X: 2, Y: 5}, {X: 2, Y: -3}},
		"zero area":  {{X: 7, Y: 7}, {X: 7, Y: 7}},
		"mixed":      {{X: 5, Y: -1}, {X: negZero, Y: 8}, {X: 0, Y: 0}, {X: -2, Y: negZero}, {X: 9, Y: 3}},
	}
	for _, a := range zeros {
		for _, b := range zeros {
			for _, c := range zeros {
				cases[fmt.Sprintf("zeros %v %v %v", math.Signbit(a), math.Signbit(b), math.Signbit(c))] =
					[]Point{{X: a, Y: b}, {X: b, Y: c}, {X: c, Y: a}, {X: 1, Y: -1}}
			}
		}
	}
	for i := 0; i < 4; i++ {
		for _, bad := range []Point{{X: math.NaN(), Y: 1}, {X: 1, Y: math.NaN()}, {X: math.Inf(-1), Y: 1}, {X: 1, Y: math.Inf(1)}} {
			pts := []Point{{X: 1, Y: 2}, {X: negZero, Y: 3}, {X: 4, Y: 0}, {X: 5, Y: 6}}
			pts[i] = bad
			cases[fmt.Sprintf("%v at %d", bad, i)] = pts
		}
	}
	bits := func(r Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
	}
	for name, pts := range cases {
		got, gerr := Bounds(pts)
		want, werr := foldBounds(pts)
		if bits(got) != bits(want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%s: Bounds = %v, %v; the fold gives %v, %v", name, got, gerr, want, werr)
		}
	}
}

// TestUnionIntersectionMatchMathMinMax holds Union's and Intersection's
// bounds, bit for bit, to math.Min's and math.Max's on both zeros, both
// infinities, the extremes and subnormals, and to a NaN wherever either
// side is one: there the builtins differ from math.Min(−Inf, NaN), which
// is −Inf, and from math.Max(+Inf, NaN), which is +Inf.
func TestUnionIntersectionMatchMathMinMax(t *testing.T) {
	sub := math.Float64frombits(0x000f_ffff_ffff_ffff) // the largest subnormal
	values := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -sub, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, sub, 1, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	same := func(got, want float64) bool {
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return math.Float64bits(got) == math.Float64bits(want)
	}
	inf := math.Inf(1)
	for _, a := range values {
		for _, b := range values {
			lo, hi := math.Min(a, b), math.Max(a, b)
			if math.IsNaN(a) || math.IsNaN(b) {
				lo, hi = math.NaN(), math.NaN()
			}
			u := RectAround(Point{X: a, Y: b}).Union(RectAround(Point{X: b, Y: a}))
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"Union MinX", u.MinX, lo}, {"Union MinY", u.MinY, lo},
				{"Union MaxX", u.MaxX, hi}, {"Union MaxY", u.MaxY, hi},
				{"Intersection MinX", Rect{a, b, inf, inf}.Intersection(Rect{b, a, inf, inf}).MinX, hi},
				{"Intersection MinY", Rect{a, b, inf, inf}.Intersection(Rect{b, a, inf, inf}).MinY, hi},
				{"Intersection MaxX", Rect{-inf, -inf, a, b}.Intersection(Rect{-inf, -inf, b, a}).MaxX, lo},
				{"Intersection MaxY", Rect{-inf, -inf, a, b}.Intersection(Rect{-inf, -inf, b, a}).MaxY, lo},
			} {
				if !same(c.got, c.want) {
					t.Errorf("%s of %v and %v = %v (%#x), math gives %v (%#x)", c.what, a, b,
						c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
				}
			}
		}
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect is not empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %g, want 0", e.Area())
	}
	if e.ContainsPoint(Point{}) {
		t.Error("empty rect contains a point")
	}
	if e.Intersects(NewRect(-1, -1, 1, 1)) {
		t.Error("empty rect intersects something")
	}
	r := NewRect(0, 0, 2, 3)
	if got := e.Union(r); got != r {
		t.Errorf("empty.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r.Union(empty) = %v, want %v", got, r)
	}
	if !r.ContainsRect(e) {
		t.Error("rect does not contain empty rect")
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 4, 3)
	if r.Width() != 4 || r.Height() != 3 {
		t.Errorf("Width/Height = %g/%g, want 4/3", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %g, want 12", r.Area())
	}
	if r.Margin() != 7 {
		t.Errorf("Margin = %g, want 7", r.Margin())
	}
	if c := r.Center(); c.X != 2 || c.Y != 1.5 {
		t.Errorf("Center = %v, want (2,1.5)", c)
	}
}

func TestContainsPointBoundary(t *testing.T) {
	r := NewRect(0, 0, 4, 3)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{X: 0, Y: 0}, true}, // corner
		{Point{X: 4, Y: 3}, true}, // opposite corner
		{Point{X: 2, Y: 0}, true}, // edge
		{Point{X: 2, Y: 1}, true}, // interior
		{Point{X: -0.1, Y: 1}, false},
		{Point{X: 2, Y: 3.1}, false},
	}
	for _, c := range cases {
		if got := r.ContainsPoint(c.p); got != c.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestIntersectsTouching(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(1, 0, 2, 1) // shares an edge
	if !a.Intersects(b) {
		t.Error("touching rects should intersect (closed semantics)")
	}
	c := NewRect(1.0001, 0, 2, 1)
	if a.Intersects(c) {
		t.Error("disjoint rects should not intersect")
	}
}

func TestIntersectionUnionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randRect(rng), randRect(rng)
		inter := a.Intersection(b)
		uni := a.Union(b)
		if !uni.ContainsRect(a) || !uni.ContainsRect(b) {
			t.Fatalf("union %v does not contain %v and %v", uni, a, b)
		}
		if !a.ContainsRect(inter) || !b.ContainsRect(inter) {
			t.Fatalf("intersection %v not inside %v and %v", inter, a, b)
		}
		if a.Intersects(b) != !inter.IsEmpty() {
			t.Fatalf("Intersects(%v,%v)=%v but intersection=%v", a, b, a.Intersects(b), inter)
		}
		if !almostEq(a.OverlapArea(b), inter.Area()) {
			t.Fatalf("OverlapArea mismatch")
		}
		// Containment of random points is consistent with set semantics.
		p := randPoint(rng)
		inBoth := a.ContainsPoint(p) && b.ContainsPoint(p)
		if inBoth != inter.ContainsPoint(p) {
			t.Fatalf("point %v: in-both=%v, in-intersection=%v", p, inBoth, inter.ContainsPoint(p))
		}
		if (a.ContainsPoint(p) || b.ContainsPoint(p)) && !uni.ContainsPoint(p) {
			t.Fatalf("point %v in an operand but not in union", p)
		}
	}
}

func TestEnlargement(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(1, 1, 3, 3)
	if got := a.Enlargement(b); !almostEq(got, 9-4) {
		t.Errorf("Enlargement = %g, want 5", got)
	}
	if got := a.Enlargement(NewRect(0.5, 0.5, 1, 1)); got != 0 {
		t.Errorf("Enlargement of contained rect = %g, want 0", got)
	}
}

// TestMinDistBruteForce validates MinDist against dense sampling of the
// rectangle.
func TestMinDistBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		r := randRect(rng)
		q := randPoint(rng)
		got := r.MinDist(q)
		best := math.Inf(1)
		const steps = 40
		for ix := 0; ix <= steps; ix++ {
			for iy := 0; iy <= steps; iy++ {
				p := Point{
					X: r.MinX + (r.MaxX-r.MinX)*float64(ix)/steps,
					Y: r.MinY + (r.MaxY-r.MinY)*float64(iy)/steps,
				}
				if d := q.Dist(p); d < best {
					best = d
				}
			}
		}
		if got > best+1e-9 {
			t.Fatalf("MinDist(%v,%v) = %g exceeds sampled min %g", r, q, got, best)
		}
		// The sampled min can exceed the true min by at most the sample
		// grid diagonal.
		cell := math.Hypot(r.Width()/40, r.Height()/40)
		if best > got+cell+1e-9 {
			t.Fatalf("MinDist(%v,%v) = %g too far below sampled min %g", r, q, got, best)
		}
	}
}

func TestMinDistInside(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if d := r.MinDist(Point{X: 5, Y: 5}); d != 0 {
		t.Errorf("MinDist inside = %g, want 0", d)
	}
	if d := r.MinDist(Point{X: 10, Y: 10}); d != 0 {
		t.Errorf("MinDist on corner = %g, want 0", d)
	}
	if d := r.MinDist(Point{X: 13, Y: 14}); !almostEq(d, 5) {
		t.Errorf("MinDist corner = %g, want 5", d)
	}
	if d := r.MinDist(Point{X: -3, Y: 5}); !almostEq(d, 3) {
		t.Errorf("MinDist side = %g, want 3", d)
	}
}

func TestMaxDist(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if d := r.MaxDist(Point{X: 0, Y: 0}); !almostEq(d, math.Hypot(10, 10)) {
		t.Errorf("MaxDist = %g", d)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		rr := randRect(rng)
		q := randPoint(rng)
		// MaxDist bounds the distance to each corner.
		md := rr.MaxDist(q)
		for _, c := range []Point{
			{X: rr.MinX, Y: rr.MinY}, {X: rr.MinX, Y: rr.MaxY},
			{X: rr.MaxX, Y: rr.MinY}, {X: rr.MaxX, Y: rr.MaxY},
		} {
			if q.Dist(c) > md+1e-9 {
				t.Fatalf("corner %v beyond MaxDist %g", c, md)
			}
		}
		if rr.MinDist(q) > md+1e-9 {
			t.Fatalf("MinDist exceeds MaxDist")
		}
	}
}

func TestBuffer(t *testing.T) {
	r := NewRect(1, 2, 3, 4).Buffer(1, 2)
	want := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 6}
	if r != want {
		t.Errorf("Buffer = %v, want %v", r, want)
	}
}

func TestIntervalDist(t *testing.T) {
	if d := IntervalDist(5, 0, 10); d != 0 {
		t.Errorf("inside: %g", d)
	}
	if d := IntervalDist(-2, 0, 10); d != 2 {
		t.Errorf("below: %g", d)
	}
	if d := IntervalDist(14, 0, 10); d != 4 {
		t.Errorf("above: %g", d)
	}
	if d := IntervalDist(0, 0, 10); d != 0 {
		t.Errorf("boundary: %g", d)
	}
}

func TestDistQuick(t *testing.T) {
	// Symmetry and triangle inequality via testing/quick.
	sym := func(ax, ay, bx, by float64) bool {
		a, b := Point{X: ax, Y: ay}, Point{X: bx, Y: by}
		return almostEq(a.Dist(b), b.Dist(a)) && almostEq(a.Dist2(b), b.Dist2(a))
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	tri := func(ax, ay, bx, by, cx, cy float64) bool {
		// Keep values bounded to avoid overflow-generated NaNs.
		bound := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point{X: bound(ax), Y: bound(ay)}
		b := Point{X: bound(bx), Y: bound(by)}
		c := Point{X: bound(cx), Y: bound(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadrant(t *testing.T) {
	q := Point{X: 10, Y: 10}
	cases := []struct {
		p    Point
		want int
	}{
		{Point{X: 11, Y: 11}, 1},
		{Point{X: 9, Y: 11}, 2},
		{Point{X: 9, Y: 9}, 3},
		{Point{X: 11, Y: 9}, 4},
		{Point{X: 10, Y: 10}, 1}, // on the origin
		{Point{X: 10, Y: 12}, 1}, // on +y axis
		{Point{X: 12, Y: 10}, 1}, // on +x axis
		{Point{X: 8, Y: 10}, 2},  // on -x axis
		{Point{X: 10, Y: 8}, 4},  // on -y axis
	}
	for _, c := range cases {
		if got := c.p.Quadrant(q); got != c.want {
			t.Errorf("Quadrant(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestQuadrantConsistentWithEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		q, p := randPoint(rng), randPoint(rng)
		quad := p.Quadrant(q)
		right := OnRightEdge(q, p)
		top := AnchorsTopEdge(q, p)
		wantRight := quad == 1 || quad == 4
		wantTop := quad == 1 || quad == 2
		if right != wantRight || top != wantTop {
			t.Fatalf("quad %d: right=%v top=%v", quad, right, top)
		}
	}
}
