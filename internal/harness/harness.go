// Package harness assembles dataset environments and runs the paper's
// experiments (Section 5): scheme × dataset × parameter sweeps, 25
// seeded query points per configuration, averaging the number of
// R*-tree nodes visited — the paper's I/O metric.
package harness

import (
	"context"
	"fmt"

	"nwcq/internal/core"
	"nwcq/internal/datagen"
	"nwcq/internal/geom"
	"nwcq/internal/grid"
	"nwcq/internal/iwp"
	"nwcq/internal/rstar"
)

// Config controls how a dataset environment is built.
type Config struct {
	// MaxEntries is the R*-tree fan-out; the paper uses 50.
	MaxEntries int
	// GridCellSize is the density-grid cell side; the paper's default
	// is 25.
	GridCellSize float64
	// BulkLoad selects STR packing instead of one-by-one R* insertion.
	// Insertion is the faithful setting; bulk loading is much faster
	// for repeated large-scale experiments.
	BulkLoad bool
	// IWPStrategy selects the backward-pointer spacing; the zero value
	// is the paper's exponential spacing.
	IWPStrategy iwp.Strategy
}

// DefaultConfig returns the paper's experimental settings.
func DefaultConfig() Config {
	return Config{MaxEntries: rstar.DefaultMaxEntries, GridCellSize: grid.DefaultCellSize}
}

// Env is a built dataset environment: the R*-tree with its DEP and IWP
// substrates, ready to answer queries under any scheme.
type Env struct {
	Name   string
	Points []geom.Point
	Tree   *rstar.Tree
	Grid   *grid.Density
	IWP    *iwp.Index
	Engine *core.Engine
}

// Build indexes pts and constructs every substrate.
func Build(name string, pts []geom.Point, cfg Config) (*Env, error) {
	if cfg.GridCellSize == 0 {
		cfg.GridCellSize = grid.DefaultCellSize
	}
	tree, err := rstar.Build(rstar.NewMemStore(), rstar.Options{MaxEntries: cfg.MaxEntries}, pts, cfg.BulkLoad)
	if err != nil {
		return nil, err
	}
	den, err := grid.New(datagen.Space(), cfg.GridCellSize, pts)
	if err != nil {
		return nil, err
	}
	ix, err := iwp.BuildWithStrategy(tree, cfg.IWPStrategy)
	if err != nil {
		return nil, err
	}
	tree.ResetVisits()
	eng, err := core.NewEngine(tree, den, ix)
	if err != nil {
		return nil, err
	}
	return &Env{Name: name, Points: pts, Tree: tree, Grid: den, IWP: ix, Engine: eng}, nil
}

// WithGrid returns a sibling environment sharing the tree and IWP index
// but using a density grid with a different cell size (used by the
// grid-size experiment, Figure 9).
func (e *Env) WithGrid(cellSize float64) (*Env, error) {
	den, err := grid.New(datagen.Space(), cellSize, e.Points)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(e.Tree, den, e.IWP)
	if err != nil {
		return nil, err
	}
	out := *e
	out.Grid = den
	out.Engine = eng
	return &out, nil
}

// QueryPoints returns n deterministic query locations drawn uniformly
// over the central 80% of the object space. The paper does not specify
// its query workload; this choice is recorded in EXPERIMENTS.md.
func QueryPoints(n int, seed int64) []geom.Point {
	rng := newRand(seed)
	pts := make([]geom.Point, n)
	const margin = 0.1 * datagen.SpaceWidth
	for i := range pts {
		pts[i] = geom.Point{
			X: margin + rng.Float64()*(datagen.SpaceWidth-2*margin),
			Y: margin + rng.Float64()*(datagen.SpaceWidth-2*margin),
		}
	}
	return pts
}

// Measurement aggregates one configuration's runs.
type Measurement struct {
	AvgIO      float64 // mean node visits per query — the paper's metric
	AvgFound   float64 // fraction of queries with a result (NWC) or mean group count / k (kNWC)
	TotalStats core.Stats
}

// paperExec executes Algorithm 1 as the paper states and counts it: one
// window query per anchor, the queue drained. The engine's serving paths
// share window queries between the anchors of a query (DESIGN.md §18) and
// stop at the bound (§19), which answers the same and reads far fewer
// nodes; the figures of Section 5 are about the paper's seven schemes, so
// they are measured without either, and the serving execution is reported
// once, as an ablation.
var paperExec = core.Exec{Paper: true}

// RunNWC answers the NWC query at every query point, executing it as the
// paper does, and averages the I/O cost.
func RunNWC(env *Env, queries []geom.Point, l, w float64, n int, scheme core.Scheme, measure core.Measure) (Measurement, error) {
	return runNWC(env, queries, l, w, n, scheme, measure, paperExec)
}

func runNWC(env *Env, queries []geom.Point, l, w float64, n int, scheme core.Scheme, measure core.Measure, x core.Exec) (Measurement, error) {
	var m Measurement
	for _, q := range queries {
		res, st, err := env.Engine.NWC(context.Background(), core.Query{Q: q, L: l, W: w, N: n}, scheme, measure, x)
		if err != nil {
			return m, fmt.Errorf("harness: %s/%v: %w", env.Name, scheme, err)
		}
		m.AvgIO += float64(st.NodeVisits)
		if res.Found {
			m.AvgFound++
		}
		m.TotalStats.Add(st)
	}
	if len(queries) > 0 {
		m.AvgIO /= float64(len(queries))
		m.AvgFound /= float64(len(queries))
	}
	return m, nil
}

// RunKNWC answers the kNWC query at every query point, executing it as
// the paper does, and averages the I/O cost.
func RunKNWC(env *Env, queries []geom.Point, l, w float64, n, k, mm int, scheme core.Scheme, measure core.Measure) (Measurement, error) {
	var m Measurement
	for _, q := range queries {
		groups, st, err := env.Engine.KNWC(context.Background(), core.KNWCQuery{
			Query: core.Query{Q: q, L: l, W: w, N: n}, K: k, M: mm,
		}, scheme, measure, paperExec)
		if err != nil {
			return m, fmt.Errorf("harness: %s/%v: %w", env.Name, scheme, err)
		}
		m.AvgIO += float64(st.NodeVisits)
		m.AvgFound += float64(len(groups)) / float64(k)
		m.TotalStats.Add(st)
	}
	if len(queries) > 0 {
		m.AvgIO /= float64(len(queries))
		m.AvgFound /= float64(len(queries))
	}
	return m, nil
}
