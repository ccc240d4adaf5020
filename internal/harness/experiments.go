package harness

import (
	"fmt"
	"math"

	"nwcq/internal/core"
	"nwcq/internal/costmodel"
	"nwcq/internal/datagen"
	"nwcq/internal/geom"
)

// Options scopes an experiment run. The zero value is unusable; start
// from DefaultOptions (the paper's full-scale settings) or QuickOptions
// (scaled down for fast regeneration).
type Options struct {
	// Scale multiplies every dataset cardinality. 1.0 reproduces the
	// paper's Table 2 sizes. Window extents are scaled by 1/√Scale so
	// the expected object count per window — the quantity that drives
	// every trend — is preserved.
	Scale float64
	// Queries is the number of query points per configuration; the
	// paper averages 25.
	Queries int
	// Seed drives all dataset and query randomness.
	Seed int64
	// Config is the index-build configuration.
	Config Config
	// Measure is the group distance measure; the paper does not name
	// one, so MeasureMax is the default.
	Measure core.Measure
	// Progress, when non-nil, receives human-readable status lines.
	Progress func(format string, args ...any)
}

// DefaultOptions reproduces the paper's experimental scale. Index
// construction uses STR bulk loading by default; set
// Config.BulkLoad = false for one-by-one R* insertion.
func DefaultOptions() Options {
	cfg := DefaultConfig()
	cfg.BulkLoad = true
	return Options{Scale: 1, Queries: 25, Seed: 2016, Config: cfg}
}

// QuickOptions scales the suite down (~4% of the paper's cardinality,
// 5 query points) so every experiment finishes in seconds. Trends and
// crossovers are preserved; absolute I/O values shrink accordingly.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.04
	o.Queries = 5
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

func (o Options) scaledN(full int) int {
	n := int(float64(full)*o.Scale + 0.5)
	if n < 200 {
		n = 200
	}
	return n
}

// windowScale converts a paper window extent into the equivalent extent
// at the current scale, preserving expected objects per window.
func (o Options) windowScale() float64 {
	if o.Scale == 1 {
		return 1
	}
	return 1 / math.Sqrt(o.Scale)
}

// Defaults from Section 5: n = 8, window length and width 8.
const (
	defaultN      = 8
	defaultWindow = 8.0
	// Figure 13/14 defaults; the paper does not state them, so these
	// assumptions are recorded in EXPERIMENTS.md: k = 8 when sweeping
	// m, m = 2 when sweeping k.
	defaultK = 8
	defaultM = 2
)

// Dataset is a named generated point set.
type Dataset struct {
	Name   string
	Points []geom.Point
}

// Datasets generates the paper's three datasets at the configured scale.
func (o Options) Datasets() []Dataset {
	return []Dataset{
		{"CA", datagen.CALikeN(o.scaledN(datagen.CACardinality), o.Seed)},
		{"NY", datagen.NYLikeN(o.scaledN(datagen.NYCardinality), o.Seed+1)},
		{"Gaussian", datagen.Gaussian(o.scaledN(datagen.GaussianCardinality), 5000, 2000, o.Seed+2)},
	}
}

func (o Options) build(d Dataset) (*Env, error) {
	o.logf("building %s (%d points, fan-out %d, bulk=%v)",
		d.Name, len(d.Points), o.Config.MaxEntries, o.Config.BulkLoad)
	return Build(d.Name, d.Points, o.Config)
}

// Table2 regenerates the dataset summary (paper Table 2), adding the
// measured clustering index of each (emulated) dataset.
func Table2(o Options) (*Table, error) {
	t := &Table{
		Title:  "Table 2: datasets",
		Header: []string{"Dataset", "Cardinality", "ClusterIdx", "Description"},
	}
	desc := map[string]string{
		"CA":       "synthetic emulation of real places in California",
		"NY":       "synthetic emulation of real places in New York",
		"Gaussian": "Gaussian distribution (mean 5000, stddev 2000)",
	}
	for _, d := range o.Datasets() {
		t.AddRow(d.Name, fmt.Sprintf("%d", len(d.Points)),
			fmt.Sprintf("%.3f", datagen.ClusteringIndex(d.Points)), desc[d.Name])
	}
	if o.Scale != 1 {
		t.Notes = append(t.Notes, fmt.Sprintf("cardinalities scaled by %g from Table 2", o.Scale))
	}
	return t, nil
}

// Table3 prints the scheme matrix (paper Table 3).
func Table3() *Table {
	t := &Table{
		Title:  "Table 3: schemes",
		Header: []string{"Scheme", "SRR", "DIP", "DEP", "IWP"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, s := range core.PaperSchemes {
		t.AddRow(s.String(), mark(s.SRR()), mark(s.DIP()), mark(s.DEP()), mark(s.IWP()))
	}
	return t
}

// Fig9 regenerates Figure 9 (effect of grid size on scheme DEP): grid
// cell sizes 25–400 across the three datasets.
func Fig9(o Options) (*Table, error) {
	cells := []float64{25, 50, 100, 200, 400}
	t := &Table{
		Title:  "Figure 9: effect of grid size (scheme DEP, avg node visits)",
		Header: []string{"GridSize", "CA", "NY", "Gaussian"},
	}
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+100)
	cols := map[float64][]string{}
	for _, d := range o.Datasets() {
		base, err := o.build(d)
		if err != nil {
			return nil, err
		}
		for _, cell := range cells {
			env, err := base.WithGrid(cell)
			if err != nil {
				return nil, err
			}
			m, err := RunNWC(env, queries, l, w, defaultN, core.SchemeDEP, o.Measure)
			if err != nil {
				return nil, err
			}
			o.logf("fig9 %s cell=%g -> %.0f", d.Name, cell, m.AvgIO)
			cols[cell] = append(cols[cell], fmtIO(m.AvgIO))
		}
	}
	for _, cell := range cells {
		t.AddRow(append([]string{fmt.Sprintf("%g", cell)}, cols[cell]...)...)
	}
	return t, nil
}

// Fig10 regenerates Figure 10 (effect of object distribution): Gaussian
// datasets with standard deviations 2000 down to 1000, all schemes.
func Fig10(o Options) (*Table, error) {
	stds := []float64{2000, 1750, 1500, 1250, 1000}
	t := &Table{
		Title:  "Figure 10: effect of object distribution (avg node visits)",
		Header: append([]string{"StdDev"}, schemeNames()...),
	}
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+200)
	n := o.scaledN(datagen.GaussianCardinality)
	var firstRow, lastRow []float64
	for _, sd := range stds {
		pts := datagen.Gaussian(n, 5000, sd, o.Seed+3)
		env, err := o.build(Dataset{Name: fmt.Sprintf("Gaussian(σ=%g)", sd), Points: pts})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%g", sd)}
		var vals []float64
		for _, s := range core.PaperSchemes {
			m, err := RunNWC(env, queries, l, w, defaultN, s, o.Measure)
			if err != nil {
				return nil, err
			}
			o.logf("fig10 σ=%g %s -> %.0f", sd, s, m.AvgIO)
			row = append(row, fmtIO(m.AvgIO))
			vals = append(vals, m.AvgIO)
		}
		t.AddRow(row...)
		if firstRow == nil {
			firstRow = vals
		}
		lastRow = vals
	}
	// Reduction rates quoted in Section 5.2.
	reduction := func(vals []float64, idx int) float64 {
		if vals[0] == 0 {
			return 0
		}
		return 100 * (1 - vals[idx]/vals[0])
	}
	for i, name := range schemeNames() {
		if i == 0 {
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s reduction over NWC: %.1f%% (σ=2000) -> %.1f%% (σ=1000)",
			name, reduction(firstRow, i), reduction(lastRow, i)))
	}
	return t, nil
}

// Fig11 regenerates Figure 11 (effect of the number of searched
// objects): n from 8 to 128, all schemes, one table per dataset.
func Fig11(o Options) ([]*Table, error) {
	ns := []int{8, 16, 32, 64, 128}
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+300)
	var tables []*Table
	for _, d := range o.Datasets() {
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("Figure 11 (%s): effect of n (avg node visits)", d.Name),
			Header: append([]string{"n"}, schemeNames()...),
		}
		for _, n := range ns {
			row := []string{fmt.Sprintf("%d", n)}
			for _, s := range core.PaperSchemes {
				m, err := RunNWC(env, queries, l, w, n, s, o.Measure)
				if err != nil {
					return nil, err
				}
				o.logf("fig11 %s n=%d %s -> %.0f", d.Name, n, s, m.AvgIO)
				row = append(row, fmtIO(m.AvgIO))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig12 regenerates Figure 12 (effect of window size): l = w from 8 to
// 128, all schemes, one table per dataset.
func Fig12(o Options) ([]*Table, error) {
	sizes := []float64{8, 16, 32, 64, 128}
	ws := o.windowScale()
	queries := QueryPoints(o.Queries, o.Seed+400)
	var tables []*Table
	for _, d := range o.Datasets() {
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("Figure 12 (%s): effect of window size (avg node visits)", d.Name),
			Header: append([]string{"WinSize"}, schemeNames()...),
		}
		for _, sz := range sizes {
			row := []string{fmt.Sprintf("%g", sz)}
			for _, s := range core.PaperSchemes {
				m, err := RunNWC(env, queries, sz*ws, sz*ws, defaultN, s, o.Measure)
				if err != nil {
					return nil, err
				}
				o.logf("fig12 %s size=%g %s -> %.0f", d.Name, sz, s, m.AvgIO)
				row = append(row, fmtIO(m.AvgIO))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig13 regenerates Figure 13 (effect of k for kNWC queries): k from 2
// to 32, schemes kNWC+ and kNWC*, CA and NY datasets.
func Fig13(o Options) (*Table, error) {
	ks := []int{2, 4, 8, 16, 32}
	t := &Table{
		Title:  "Figure 13: effect of k (kNWC, avg node visits)",
		Header: []string{"k", "CA kNWC+", "CA kNWC*", "NY kNWC+", "NY kNWC*"},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("fixed m = %d (assumption; paper does not state it)", defaultM))
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+500)
	cols := map[int][]string{}
	for _, d := range o.Datasets()[:2] { // CA and NY
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			for _, s := range []core.Scheme{core.SchemeNWCPlus, core.SchemeNWCStar} {
				m, err := RunKNWC(env, queries, l, w, defaultN, k, defaultM, s, o.Measure)
				if err != nil {
					return nil, err
				}
				o.logf("fig13 %s k=%d %s -> %.0f", d.Name, k, s, m.AvgIO)
				cols[k] = append(cols[k], fmtIO(m.AvgIO))
			}
		}
	}
	for _, k := range ks {
		t.AddRow(append([]string{fmt.Sprintf("%d", k)}, cols[k]...)...)
	}
	return t, nil
}

// Fig14 regenerates Figure 14 (effect of m for kNWC queries): m from 0
// to 6, schemes kNWC+ and kNWC*, CA and NY datasets.
func Fig14(o Options) (*Table, error) {
	ms := []int{0, 1, 2, 4, 6}
	t := &Table{
		Title:  "Figure 14: effect of m (kNWC, avg node visits)",
		Header: []string{"m", "CA kNWC+", "CA kNWC*", "NY kNWC+", "NY kNWC*"},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("fixed k = %d (assumption; paper does not state it)", defaultK))
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+600)
	cols := map[int][]string{}
	for _, d := range o.Datasets()[:2] {
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			for _, s := range []core.Scheme{core.SchemeNWCPlus, core.SchemeNWCStar} {
				meas, err := RunKNWC(env, queries, l, w, defaultN, defaultK, m, s, o.Measure)
				if err != nil {
					return nil, err
				}
				o.logf("fig14 %s m=%d %s -> %.0f", d.Name, m, s, meas.AvgIO)
				cols[m] = append(cols[m], fmtIO(meas.AvgIO))
			}
		}
	}
	for _, m := range ms {
		t.AddRow(append([]string{fmt.Sprintf("%d", m)}, cols[m]...)...)
	}
	return t, nil
}

// StorageOverheads regenerates the Section 5.2 storage accounting: the
// density-grid size and the backward/overlapping pointer counts per
// dataset.
func StorageOverheads(o Options) (*Table, error) {
	t := &Table{
		Title:  "Section 5.2: storage overheads of DEP and IWP",
		Header: []string{"Dataset", "GridCells", "GridKB", "BackwardPtrs", "OverlapPtrs", "IWP KB"},
	}
	for _, d := range o.Datasets() {
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		nx, ny := env.Grid.Dims()
		t.AddRow(d.Name,
			fmt.Sprintf("%d", nx*ny),
			fmt.Sprintf("%.0f", float64(env.Grid.StorageBytes())/1024),
			fmt.Sprintf("%d", env.IWP.NumBackward()),
			fmt.Sprintf("%d", env.IWP.NumOverlap()),
			fmt.Sprintf("%.0f", float64(env.IWP.StorageBytes())/1024),
		)
	}
	return t, nil
}

// ModelComparison runs the Section 4 analytical model against measured
// I/O of scheme NWC+ on a uniform dataset across n.
func ModelComparison(o Options) (*Table, error) {
	t := &Table{
		Title:  "Section 4: analytic model vs measured (uniform data, scheme NWC+)",
		Header: []string{"n", "Model", "Measured", "Ratio"},
	}
	nPts := o.scaledN(datagen.GaussianCardinality)
	pts := datagen.Uniform(nPts, o.Seed+4)
	env, err := o.build(Dataset{Name: "Uniform", Points: pts})
	if err != nil {
		return nil, err
	}
	model := costmodel.Model{
		Lambda:     float64(nPts) / (datagen.SpaceWidth * datagen.SpaceWidth),
		SpaceWidth: datagen.SpaceWidth,
		FanOut:     o.Config.MaxEntries,
		FillFactor: 0.7,
	}
	queries := QueryPoints(o.Queries, o.Seed+700)
	// A window holding ~10 objects in expectation keeps the model and
	// the search in the feasible regime across the n sweep. The side is
	// derived from the actual density, so it is scale-consistent.
	side := math.Sqrt(10 / model.Lambda)
	for _, n := range []int{2, 4, 8} {
		predicted, err := model.NWCCost(side, side, n)
		if err != nil {
			return nil, err
		}
		m, err := RunNWC(env, queries, side, side, n, core.SchemeNWCPlus, o.Measure)
		if err != nil {
			return nil, err
		}
		ratio := math.Inf(1)
		if m.AvgIO > 0 {
			ratio = predicted / m.AvgIO
		}
		o.logf("model n=%d predicted=%.0f measured=%.0f", n, predicted, m.AvgIO)
		t.AddRow(fmt.Sprintf("%d", n), fmtIO(predicted), fmtIO(m.AvgIO), fmt.Sprintf("%.2f", ratio))
	}
	return t, nil
}

// FigKNWCByN is an extension experiment beyond the paper's figures: the
// effect of the group size n on kNWC cost, for both kNWC schemes on the
// CA-like and NY-like datasets (k and m fixed at the Figure 13/14
// defaults). The paper sweeps n only for single-group NWC queries.
func FigKNWCByN(o Options) (*Table, error) {
	ns := []int{4, 8, 16, 32}
	t := &Table{
		Title:  "Extension: effect of n on kNWC (avg node visits)",
		Header: []string{"n", "CA kNWC+", "CA kNWC*", "NY kNWC+", "NY kNWC*"},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("extension beyond the paper; fixed k = %d, m = %d", defaultK, defaultM))
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+900)
	cols := map[int][]string{}
	for _, d := range o.Datasets()[:2] {
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		for _, n := range ns {
			for _, s := range []core.Scheme{core.SchemeNWCPlus, core.SchemeNWCStar} {
				m, err := RunKNWC(env, queries, l, w, n, defaultK, defaultM, s, o.Measure)
				if err != nil {
					return nil, err
				}
				o.logf("knwc-n %s n=%d %s -> %.0f", d.Name, n, s, m.AvgIO)
				cols[n] = append(cols[n], fmtIO(m.AvgIO))
			}
		}
	}
	for _, n := range ns {
		t.AddRow(append([]string{fmt.Sprintf("%d", n)}, cols[n]...)...)
	}
	return t, nil
}

func schemeNames() []string {
	out := make([]string, len(core.PaperSchemes))
	for i, s := range core.PaperSchemes {
		out[i] = s.String()
	}
	return out
}
