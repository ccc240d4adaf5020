// Package grid implements the density grid behind the paper's
// density-based pruning (DEP, Section 3.3.3): the object space is divided
// into square cells and each cell records how many objects it contains.
// Summing the counts of every cell that intersects a rectangle yields an
// upper bound on the number of objects inside the rectangle; when that
// bound is below the query's n, the rectangle cannot host a qualified
// window and DEP prunes the index node or cancels the window query.
package grid

import (
	"fmt"
	"slices"

	"nwcq/internal/geom"
)

// DefaultCellSize is the paper's cell side.
const DefaultCellSize = 25

// maxCells caps a grid at 1 GiB of counts: a space wider than that at
// its cell size (a far outlier, a hostile coordinate) is an error, not
// an allocation that panics or exhausts memory.
const maxCells = 1 << 28

// Density is a density grid over a bounded object space.
//
// Counts are stored per row, as prefix sums: rows[cy][cx] is the number
// of objects in cells [0, cx) of row cy (nx+1 words), so a rectangle's
// bound costs one subtraction per row it spans and a mutation rewrites
// the suffix of one row. Rows are independent (DESIGN.md §9: why not a
// 2-D table) so that the copy-on-write derivations (WithAdd, WithRemove)
// can produce an updated grid by cloning the row directory plus the
// single affected row — a few hundred words for the paper's 400 × 400
// default — while sharing every untouched row with the original. A
// Density reached only through WithAdd/WithRemove is effectively
// immutable and safe for concurrent readers; the in-place Add/Remove
// methods remain for single-owner bulk construction and must never run
// on a grid that concurrent queries can see.
type Density struct {
	space    geom.Rect
	cellSize float64
	nx, ny   int
	rows     [][]uint32 // rows[cy][cx]: prefix sums, see above
	total    int
}

// New builds a density grid over space with square cells of side
// cellSize (the paper's "grid size"; its default experimental setting is
// 25 on a 10,000-wide space, i.e. a 400 × 400 grid). Cells at the top
// and right edge may extend beyond the space.
func New(space geom.Rect, cellSize float64, pts []geom.Point) (*Density, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("grid: cell size %g must be positive", cellSize)
	}
	if space.IsEmpty() || space.Width() <= 0 || space.Height() <= 0 {
		return nil, fmt.Errorf("grid: invalid space %v", space)
	}
	// Written so a NaN or infinite extent fails too.
	if cells := (space.Width()/cellSize + 1) * (space.Height()/cellSize + 1); !(cells <= maxCells) {
		return nil, fmt.Errorf("grid: space %v at cell size %g needs %g cells, more than %d", space, cellSize, cells, maxCells)
	}
	d := &Density{
		space:    space,
		cellSize: cellSize,
		nx:       int(space.Width()/cellSize) + 1,
		ny:       int(space.Height()/cellSize) + 1,
	}
	// One backing array, sliced into rows: same locality as the old
	// flat layout for the build, while rows stay independently
	// shareable afterwards.
	stride := d.nx + 1
	flat := make([]uint32, stride*d.ny)
	d.rows = make([][]uint32, d.ny)
	for cy := 0; cy < d.ny; cy++ {
		d.rows[cy] = flat[cy*stride : (cy+1)*stride : (cy+1)*stride]
	}
	// Each cell is counted into the word after it, then rows are summed.
	for _, p := range pts {
		cx, cy, ok := d.cellOf(p)
		if !ok {
			return nil, fmt.Errorf("grid: point %v outside space %v", p, space)
		}
		d.rows[cy][cx+1]++
		d.total++
	}
	for _, row := range d.rows {
		for cx := 1; cx <= d.nx; cx++ {
			row[cx] += row[cx-1]
		}
	}
	return d, nil
}

// cellOf maps a point to its cell coordinates.
func (d *Density) cellOf(p geom.Point) (cx, cy int, ok bool) {
	if !d.space.ContainsPoint(p) {
		return 0, 0, false
	}
	cx = int((p.X - d.space.MinX) / d.cellSize)
	cy = int((p.Y - d.space.MinY) / d.cellSize)
	if cx >= d.nx {
		cx = d.nx - 1
	}
	if cy >= d.ny {
		cy = d.ny - 1
	}
	return cx, cy, true
}

// CellSize returns the configured cell side length.
func (d *Density) CellSize() float64 { return d.cellSize }

// Dims returns the number of cells along x and y.
func (d *Density) Dims() (nx, ny int) { return d.nx, d.ny }

// Total returns the number of indexed objects.
func (d *Density) Total() int { return d.total }

// StorageBytes returns the footprint of the cell counters as the paper
// lays them out — one short integer per cell (Section 5.2: a 400 × 400
// grid occupies about 312 KB) — so the storage-overhead experiment
// matches; it is not what is held, a 4-byte prefix word per cell and one
// more per row.
func (d *Density) StorageBytes() int { return d.nx * d.ny * 2 }

// UpperBound returns an upper bound on the number of objects within rect
// (Algorithm 2's ub): the sum of the counts of all cells intersecting
// rect, taken as one prefix-sum difference per row. Cells partially
// covered by rect contribute their full count, so the result can exceed
// — but never undercount — the true population.
func (d *Density) UpperBound(rect geom.Rect) int {
	rect = rect.Intersection(d.space)
	if rect.IsEmpty() {
		return 0
	}
	x0 := int((rect.MinX - d.space.MinX) / d.cellSize)
	y0 := int((rect.MinY - d.space.MinY) / d.cellSize)
	x1 := int((rect.MaxX - d.space.MinX) / d.cellSize)
	y1 := int((rect.MaxY - d.space.MinY) / d.cellSize)
	if x1 >= d.nx {
		x1 = d.nx - 1
	}
	if y1 >= d.ny {
		y1 = d.ny - 1
	}
	sum := 0
	for _, row := range d.rows[y0 : y1+1] {
		sum += int(row[x1+1] - row[x0])
	}
	return sum
}

// PrunesRect implements Algorithm 2 (isPrunedByDEP): it reports whether
// rect cannot contain n objects according to the grid's upper bound.
func (d *Density) PrunesRect(rect geom.Rect, n int) bool {
	return d.UpperBound(rect) < n
}

// Space returns the grid's object space.
func (d *Density) Space() geom.Rect { return d.space }

// cellFor is cellOf for a mutation: it names what is wrong with p, and a
// removal is also refused from a cell that holds nothing.
func (d *Density) cellFor(p geom.Point, remove bool) (cx, cy int, err error) {
	cx, cy, ok := d.cellOf(p)
	if !ok {
		return 0, 0, fmt.Errorf("grid: point %v outside space %v", p, d.space)
	}
	if remove && d.rows[cy][cx+1] == d.rows[cy][cx] {
		return 0, 0, fmt.Errorf("grid: removing %v from an empty cell", p)
	}
	return cx, cy, nil
}

const minusOne = ^uint32(0) // −1 in the counters' wrapping arithmetic

// bump changes the count of cell cx of row by delta: every prefix sum
// past the cell moves, at most nx additions.
func bump(row []uint32, cx int, delta uint32) {
	for i := cx + 1; i < len(row); i++ {
		row[i] += delta
	}
}

// Add counts a newly inserted object in place. It fails when p lies
// outside the grid's space; callers then rebuild the grid over an
// enlarged space. In-place mutation is for single-owner grids only —
// published grids derive updates with WithAdd.
func (d *Density) Add(p geom.Point) error {
	cx, cy, err := d.cellFor(p, false)
	if err != nil {
		return err
	}
	bump(d.rows[cy], cx, 1)
	d.total++
	return nil
}

// Remove uncounts a deleted object in place. Removing an object that
// was never added corrupts the bound and is rejected. See Add for the
// single-owner caveat.
func (d *Density) Remove(p geom.Point) error {
	cx, cy, err := d.cellFor(p, true)
	if err != nil {
		return err
	}
	bump(d.rows[cy], cx, minusOne)
	d.total--
	return nil
}

// withRow returns a copy of d whose row directory is fresh and whose
// row cy is a private clone, ready to be edited without disturbing d.
func (d *Density) withRow(cy int) *Density {
	nd := *d
	nd.rows = slices.Clone(d.rows)
	nd.rows[cy] = slices.Clone(d.rows[cy])
	return &nd
}

// WithAdd returns a new grid equal to d plus one object at p, sharing
// every row except the affected one. d is not modified and stays safe
// for concurrent readers.
func (d *Density) WithAdd(p geom.Point) (*Density, error) {
	cx, cy, err := d.cellFor(p, false)
	if err != nil {
		return nil, err
	}
	nd := d.withRow(cy)
	bump(nd.rows[cy], cx, 1)
	nd.total++
	return nd, nil
}

// WithRemove returns a new grid equal to d minus one object at p,
// sharing every row except the affected one. d is not modified and
// stays safe for concurrent readers.
func (d *Density) WithRemove(p geom.Point) (*Density, error) {
	cx, cy, err := d.cellFor(p, true)
	if err != nil {
		return nil, err
	}
	nd := d.withRow(cy)
	bump(nd.rows[cy], cx, minusOne)
	nd.total--
	return nd, nil
}
