package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nwcq/internal/geom"
)

func TestNewValidation(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	if _, err := New(space, 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := New(space, -5, nil); err == nil {
		t.Error("negative cell size accepted")
	}
	if _, err := New(geom.EmptyRect(), 10, nil); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := New(space, 10, []geom.Point{{X: 200, Y: 0}}); err == nil {
		t.Error("out-of-space point accepted")
	}
	// A far outlier's insert rebuilds the grid over a space this wide: an
	// error, not an allocation that panics.
	for _, wide := range []geom.Rect{
		geom.NewRect(0, 0, 1e300, 10),
		geom.NewRect(0, 0, 1e12, 1e12),
		{MaxX: math.Inf(1), MaxY: 10},
		{MaxX: math.NaN(), MaxY: 10},
	} {
		if _, err := New(wide, 25, nil); err == nil {
			t.Errorf("space %v accepted", wide)
		}
	}
}

func TestDimsMatchPaper(t *testing.T) {
	// Section 5.2: grid size 25 on a 10,000-wide space gives 160,000
	// cells at ~312 KB of short integers.
	space := geom.NewRect(0, 0, 10000, 10000)
	d, err := New(space, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := d.Dims()
	if nx*ny < 160000 || nx*ny > 161*1001 {
		t.Errorf("dims %dx%d = %d cells, paper has 160000", nx, ny, nx*ny)
	}
	if d.StorageBytes() < 320000 || d.StorageBytes() > 322*1004 {
		t.Errorf("storage %d bytes, paper reports ~312KB", d.StorageBytes())
	}
}

func TestUpperBoundNeverUndercounts(t *testing.T) {
	space := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
	}
	for _, cell := range []float64{7, 25, 100, 333, 2000} {
		d, err := New(space, cell, pts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Total() != len(pts) {
			t.Fatalf("total %d, want %d", d.Total(), len(pts))
		}
		for i := 0; i < 500; i++ {
			r := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
				rng.Float64()*1000, rng.Float64()*1000)
			exact := 0
			for _, p := range pts {
				if r.ContainsPoint(p) {
					exact++
				}
			}
			ub := d.UpperBound(r)
			if ub < exact {
				t.Fatalf("cell=%g rect=%v: upper bound %d < exact %d", cell, r, ub, exact)
			}
			// The bound is limited by the cells the rect touches plus one
			// ring of partial cells; sanity-check it is not wildly loose.
			grown := r.Buffer(cell, cell)
			loose := 0
			for _, p := range pts {
				if grown.ContainsPoint(p) {
					loose++
				}
			}
			if ub > loose {
				t.Fatalf("cell=%g: upper bound %d exceeds one-ring population %d", cell, ub, loose)
			}
		}
	}
}

func TestUpperBoundFullAndOutside(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 50}, {X: 100, Y: 100}}
	d, err := New(space, 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	if ub := d.UpperBound(space); ub != 3 {
		t.Errorf("full-space bound %d, want 3", ub)
	}
	if ub := d.UpperBound(geom.NewRect(-50, -50, -1, -1)); ub != 0 {
		t.Errorf("outside bound %d, want 0", ub)
	}
	if ub := d.UpperBound(geom.NewRect(-1000, -1000, 1000, 1000)); ub != 3 {
		t.Errorf("superset bound %d, want 3", ub)
	}
	if ub := d.UpperBound(geom.EmptyRect()); ub != 0 {
		t.Errorf("empty-rect bound %d, want 0", ub)
	}
}

func TestBoundaryPointsCounted(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	// Points exactly on space and cell boundaries.
	pts := []geom.Point{
		{X: 100, Y: 100}, // top-right corner of the space
		{X: 10, Y: 10},   // cell corner
		{X: 0, Y: 100},
	}
	d, err := New(space, 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total() != 3 {
		t.Fatalf("total %d", d.Total())
	}
	for _, p := range pts {
		if ub := d.UpperBound(geom.RectAround(p)); ub < 1 {
			t.Errorf("boundary point %v not counted (ub=%d)", p, ub)
		}
	}
}

func TestPrunesRect(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	var pts []geom.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point{X: 5, Y: 5, ID: uint64(i)}) // all in one cell
	}
	d, err := New(space, 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	dense := geom.NewRect(0, 0, 9, 9)
	empty := geom.NewRect(50, 50, 90, 90)
	if d.PrunesRect(dense, 10) {
		t.Error("pruned a rect with enough objects")
	}
	if !d.PrunesRect(dense, 11) {
		t.Error("kept a rect that cannot satisfy n")
	}
	if !d.PrunesRect(empty, 1) {
		t.Error("kept an empty region")
	}
}

func TestCellSizeLargerThanSpace(t *testing.T) {
	space := geom.NewRect(0, 0, 10, 10)
	d, err := New(space, 100, []geom.Point{{X: 5, Y: 5}})
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := d.Dims()
	if nx != 1 || ny != 1 {
		t.Errorf("dims %dx%d, want 1x1", nx, ny)
	}
	if ub := d.UpperBound(geom.NewRect(8, 8, 9, 9)); ub != 1 {
		t.Errorf("single-cell bound %d, want 1 (whole cell counts)", ub)
	}
}

func TestAddRemove(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	d, err := New(space, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 15, Y: 15}
	if err := d.Add(p); err != nil {
		t.Fatal(err)
	}
	if d.Total() != 1 || d.UpperBound(geom.NewRect(10, 10, 20, 20)) != 1 {
		t.Fatalf("count after add: total=%d", d.Total())
	}
	if err := d.Remove(p); err != nil {
		t.Fatal(err)
	}
	if d.Total() != 0 || d.UpperBound(space) != 0 {
		t.Fatalf("count after remove: total=%d", d.Total())
	}
	// Errors: outside space, and removal from an empty cell.
	if err := d.Add(geom.Point{X: 500, Y: 0}); err == nil {
		t.Error("out-of-space add accepted")
	}
	if err := d.Remove(p); err == nil {
		t.Error("underflow remove accepted")
	}
	if err := d.Remove(geom.Point{X: -5, Y: 0}); err == nil {
		t.Error("out-of-space remove accepted")
	}
}

func TestAddRemoveMatchesRebuild(t *testing.T) {
	space := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(9))
	var live []geom.Point
	d, err := New(space, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			if err := d.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		} else {
			p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
			if err := d.Add(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
	}
	rebuilt, err := New(space, 25, live)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		if a, b := d.UpperBound(r), rebuilt.UpperBound(r); a != b {
			t.Fatalf("incremental bound %d, rebuilt %d for %v", a, b, r)
		}
	}
}

func TestWithAddWithRemoveCopyOnWrite(t *testing.T) {
	space := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i)}
	}
	base, err := New(space, 25, pts)
	if err != nil {
		t.Fatal(err)
	}

	// Derive a long chain of COW updates, checking the base never moves.
	baseBound := base.UpperBound(space)
	cur := base
	live := append([]geom.Point(nil), pts...)
	for step := 0; step < 300; step++ {
		if step%2 == 0 {
			p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(100000 + step)}
			next, err := cur.WithAdd(p)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Total() != len(live) {
				t.Fatalf("step %d: WithAdd mutated receiver total", step)
			}
			live = append(live, p)
			cur = next
		} else {
			victim := live[rng.Intn(len(live))]
			next, err := cur.WithRemove(victim)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Total() != len(live) {
				t.Fatalf("step %d: WithRemove mutated receiver total", step)
			}
			for i := range live {
				if live[i] == victim {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			cur = next
		}
		if cur.Total() != len(live) {
			t.Fatalf("step %d: total %d, want %d", step, cur.Total(), len(live))
		}
	}
	if got := base.UpperBound(space); got != baseBound {
		t.Fatalf("base grid changed: bound %d, want %d", got, baseBound)
	}
	// The final grid must agree cell-for-cell with a fresh build.
	fresh, err := New(space, 25, live)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		if a, b := cur.UpperBound(r), fresh.UpperBound(r); a != b {
			t.Fatalf("rect %d: COW bound %d, fresh bound %d", i, a, b)
		}
	}

	if _, err := base.WithAdd(geom.Point{X: -1, Y: -1}); err == nil {
		t.Error("WithAdd outside space accepted")
	}
	empty, err := New(space, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.WithRemove(geom.Point{X: 5, Y: 5}); err == nil {
		t.Error("WithRemove from empty cell accepted")
	}
}

// gridModel is the naive side of TestMutationsMatchRecount: the live
// points, recounted cell by cell for every question.
type gridModel struct {
	space geom.Rect
	cell  float64
	live  []geom.Point
}

// cellOf restates the grid's mapping: truncate, then fold the space's
// top and right border into the last cell.
func (m *gridModel) cellOf(p geom.Point) (cx, cy int) {
	nx, ny := int(m.space.Width()/m.cell)+1, int(m.space.Height()/m.cell)+1
	cx = min(int((p.X-m.space.MinX)/m.cell), nx-1)
	cy = min(int((p.Y-m.space.MinY)/m.cell), ny-1)
	return cx, cy
}

// upperBound counts the live points whose cell intersects r, one point
// and one cell at a time.
func (m *gridModel) upperBound(r geom.Rect) int {
	r = r.Intersection(m.space)
	if r.IsEmpty() {
		return 0
	}
	x0, y0 := m.cellOf(geom.Point{X: r.MinX, Y: r.MinY})
	x1, y1 := m.cellOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	n := 0
	for _, p := range m.live {
		if cx, cy := m.cellOf(p); cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1 {
			n++
		}
	}
	return n
}

func (m *gridModel) cellEmpty(p geom.Point) bool {
	return m.upperBound(geom.RectAround(p)) == 0
}

// coord draws a coordinate inside [lo, hi] that is, half the time, on a
// cell border or a border of the space.
func (m *gridModel) coord(rng *rand.Rand, lo, hi float64) float64 {
	switch rng.Intn(6) {
	case 0:
		return lo
	case 1:
		return hi
	case 2:
		return min(lo+float64(rng.Intn(int((hi-lo)/m.cell)+1))*m.cell, hi)
	}
	return lo + rng.Float64()*(hi-lo)
}

func (m *gridModel) point(rng *rand.Rand, id uint64) geom.Point {
	s := m.space
	return geom.Point{X: m.coord(rng, s.MinX, s.MaxX), Y: m.coord(rng, s.MinY, s.MaxY), ID: id}
}

// rects returns the questions asked after every step: degenerate, one
// cell, the whole space, a superset of it, outside it, and random ones.
func (m *gridModel) rects(rng *rand.Rand) []geom.Rect {
	s := m.space
	p, c := m.point(rng, 0), m.point(rng, 0)
	out := []geom.Rect{
		geom.RectAround(p),
		geom.NewRect(p.X, s.MinY, p.X, s.MaxY), // zero width, every row
		geom.NewRect(s.MinX, p.Y, s.MaxX, p.Y), // zero height, every column
		geom.NewRect(c.X, c.Y, c.X+m.cell/2, c.Y+m.cell/2),
		s,
		s.Buffer(3*m.cell, 3*m.cell),
		geom.NewRect(s.MaxX+1, s.MinY, s.MaxX+50, s.MaxY),
		geom.NewRect(s.MinX-50, s.MinY-50, s.MinX-1, s.MinY-1),
		geom.EmptyRect(),
	}
	for i := 0; i < 6; i++ {
		a, b := m.point(rng, 0), m.point(rng, 0)
		out = append(out, geom.NewRect(a.X, a.Y, b.X, b.Y))
	}
	return out
}

// TestMutationsMatchRecount drives random Add / Remove / WithAdd /
// WithRemove sequences and asserts after every step that UpperBound
// equals a per-cell recount of the live points, that refused mutations
// change nothing, and that a derived grid shares every untouched row
// with its parent and leaves the parent's answers alone.
func TestMutationsMatchRecount(t *testing.T) {
	configs := []struct {
		name  string
		space geom.Rect
		cell  float64
	}{
		{"dividing", geom.NewRect(0, 0, 100, 100), 10},
		{"ragged", geom.NewRect(-50, 20, 41, 97), 7},
		{"one-cell", geom.NewRect(0, 0, 10, 10), 250},
		{"one-row", geom.NewRect(0, 0, 300, 4), 5},
		{"paper", geom.NewRect(0, 0, 10000, 10000), 25},
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			m := &gridModel{space: cfg.space, cell: cfg.cell}
			for i := 0; i < 40; i++ {
				m.live = append(m.live, m.point(rng, uint64(i)))
			}
			cur, err := New(cfg.space, cfg.cell, m.live)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step int, what string, d *Density, rects []geom.Rect) {
				t.Helper()
				if d.Total() != len(m.live) {
					t.Fatalf("step %d %s: total %d, want %d", step, what, d.Total(), len(m.live))
				}
				for _, r := range rects {
					if got, want := d.UpperBound(r), m.upperBound(r); got != want {
						t.Fatalf("step %d %s: UpperBound(%v) = %d, recount %d", step, what, r, got, want)
					}
				}
			}
			check(0, "build", cur, m.rects(rng))
			for step := 1; step <= 400; step++ {
				rects := m.rects(rng)
				before := make([]int, len(rects))
				for i, r := range rects {
					before[i] = cur.UpperBound(r)
				}
				parent, parentTotal := cur, cur.Total()
				cow := rng.Intn(2) == 0
				var p geom.Point
				switch op := rng.Intn(8); {
				case op == 0: // refused: outside the space
					p = geom.Point{X: cfg.space.MaxX + 1 + rng.Float64(), Y: cfg.space.MinY}
					errs := []error{cur.Add(p), cur.Remove(p)}
					_, e1 := cur.WithAdd(p)
					_, e2 := cur.WithRemove(p)
					for i, err := range append(errs, e1, e2) {
						if err == nil {
							t.Fatalf("step %d: mutation %d outside the space accepted", step, i)
						}
					}
					cow = false
				case op == 1: // refused: removal from an empty cell
					p = m.point(rng, 0)
					if !m.cellEmpty(p) {
						continue
					}
					if err := cur.Remove(p); err == nil {
						t.Fatalf("step %d: Remove(%v) from an empty cell accepted", step, p)
					}
					if _, err := cur.WithRemove(p); err == nil {
						t.Fatalf("step %d: WithRemove(%v) from an empty cell accepted", step, p)
					}
					cow = false
				case op <= 4 || len(m.live) == 0:
					p = m.point(rng, uint64(1000+step))
					if cow {
						cur, err = cur.WithAdd(p)
					} else {
						err = cur.Add(p)
					}
					m.live = append(m.live, p)
				default:
					j := rng.Intn(len(m.live))
					p = m.live[j]
					if cow {
						cur, err = cur.WithRemove(p)
					} else {
						err = cur.Remove(p)
					}
					m.live = append(m.live[:j], m.live[j+1:]...)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				check(step, "current", cur, rects)
				if !cow {
					continue
				}
				// The parent kept its total and its answers, and gave the
				// child every row but the one the point falls in.
				if parent.Total() != parentTotal {
					t.Fatalf("step %d: derivation changed the parent's total", step)
				}
				for i, r := range rects {
					if got := parent.UpperBound(r); got != before[i] {
						t.Fatalf("step %d: parent's UpperBound(%v) moved %d -> %d", step, r, before[i], got)
					}
				}
				_, cy := m.cellOf(p)
				for y := range cur.rows {
					if shared := &cur.rows[y][0] == &parent.rows[y][0]; shared != (y != cy) {
						t.Fatalf("step %d: row %d shared = %v, the point is in row %d", step, y, shared, cy)
					}
				}
			}
		})
	}
}

var ubSink int

// BenchmarkUpperBound prices one DEP probe at the three rectangle sizes
// the search asks about — the root's extended MBR (the whole space), a
// leaf's, and one object's search region — on 200,000 uniform points at
// the paper's default cell size and at a fine one.
func BenchmarkUpperBound(b *testing.B) {
	space := geom.NewRect(0, 0, 10000, 10000)
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 200000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: uint64(i)}
	}
	for _, cell := range []float64{25, 5} {
		d, err := New(space, cell, pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, sz := range []struct {
			name string
			w, h float64
		}{{"root", 10000, 10000}, {"leaf", 400, 400}, {"region", 60, 120}} {
			b.Run(fmt.Sprintf("cell=%g/%s", cell, sz.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					x := float64(i%89) * (10000 - sz.w) / 89
					y := float64(i%97) * (10000 - sz.h) / 97
					ubSink += d.UpperBound(geom.NewRect(x, y, x+sz.w, y+sz.h))
				}
			})
		}
	}
}
