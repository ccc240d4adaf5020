package harness

import (
	"fmt"

	"nwcq/internal/core"
	"nwcq/internal/iwp"
)

// Ablation runs the design-choice studies DESIGN.md calls out, beyond
// the paper's own figures:
//
//  1. index build method — STR bulk loading vs one-by-one R* insertion
//     (node counts and NWC* query I/O);
//  2. R*-tree fan-out — 25 / 50 (paper) / 100 entries per node;
//  3. IWP backward-pointer spacing — minimal / exponential (paper) /
//     full (pointer storage vs IWP-scheme query I/O);
//  4. the serving execution — NWC* executed as the paper states it, one
//     window query per anchor and the queue drained (what every other
//     table and figure reports), beside NWC* as the engine serves it: the
//     anchors of a query sharing what their window queries fetch
//     (DESIGN.md §18) and the search stopping at the bound, inside its
//     box (§19).
func Ablation(o Options) ([]*Table, error) {
	ws := o.windowScale()
	l, w := defaultWindow*ws, defaultWindow*ws
	queries := QueryPoints(o.Queries, o.Seed+800)
	datasets := o.Datasets()

	// 1. Build method, all three datasets.
	buildTab := &Table{
		Title:  "Ablation: STR bulk load vs R* insertion (scheme NWC*)",
		Header: []string{"Dataset", "Build", "TreeNodes", "AvgIO"},
	}
	for _, d := range datasets {
		for _, bulk := range []bool{true, false} {
			cfg := o.Config
			cfg.BulkLoad = bulk
			o.logf("ablation build %s bulk=%v", d.Name, bulk)
			env, err := Build(d.Name, d.Points, cfg)
			if err != nil {
				return nil, err
			}
			nodes, err := env.Tree.NumNodes()
			if err != nil {
				return nil, err
			}
			env.Tree.ResetVisits()
			m, err := RunNWC(env, queries, l, w, defaultN, core.SchemeNWCStar, o.Measure)
			if err != nil {
				return nil, err
			}
			name := "insert"
			if bulk {
				name = "STR"
			}
			buildTab.AddRow(d.Name, name, fmt.Sprintf("%d", nodes), fmtIO(m.AvgIO))
		}
	}

	// 2. Fan-out sweep on the Gaussian dataset.
	fanTab := &Table{
		Title:  "Ablation: R*-tree fan-out (Gaussian dataset)",
		Header: []string{"FanOut", "TreeNodes", "NWC+ AvgIO", "NWC* AvgIO"},
	}
	gauss := datasets[2]
	for _, fan := range []int{25, 50, 100} {
		cfg := o.Config
		cfg.MaxEntries = fan
		o.logf("ablation fan-out %d", fan)
		env, err := Build(gauss.Name, gauss.Points, cfg)
		if err != nil {
			return nil, err
		}
		nodes, err := env.Tree.NumNodes()
		if err != nil {
			return nil, err
		}
		env.Tree.ResetVisits()
		plus, err := RunNWC(env, queries, l, w, defaultN, core.SchemeNWCPlus, o.Measure)
		if err != nil {
			return nil, err
		}
		star, err := RunNWC(env, queries, l, w, defaultN, core.SchemeNWCStar, o.Measure)
		if err != nil {
			return nil, err
		}
		fanTab.AddRow(fmt.Sprintf("%d", fan), fmt.Sprintf("%d", nodes),
			fmtIO(plus.AvgIO), fmtIO(star.AvgIO))
	}

	// 3. IWP pointer spacing on the CA-like dataset, scheme IWP alone so
	// the effect is undiluted.
	iwpTab := &Table{
		Title:  "Ablation: IWP backward-pointer spacing (CA dataset, scheme IWP)",
		Header: []string{"Spacing", "BackwardPtrs", "OverlapPtrs", "AvgIO"},
	}
	ca := datasets[0]
	for _, strat := range []iwp.Strategy{iwp.Minimal, iwp.Exponential, iwp.Full} {
		cfg := o.Config
		cfg.IWPStrategy = strat
		o.logf("ablation IWP %v", strat)
		env, err := Build(ca.Name, ca.Points, cfg)
		if err != nil {
			return nil, err
		}
		m, err := RunNWC(env, queries, l, w, defaultN, core.SchemeIWP, o.Measure)
		if err != nil {
			return nil, err
		}
		iwpTab.AddRow(strat.String(),
			fmt.Sprintf("%d", env.IWP.NumBackward()),
			fmt.Sprintf("%d", env.IWP.NumOverlap()),
			fmtIO(m.AvgIO))
	}

	// 4. The serving execution against the paper's, all three datasets.
	servingTab := &Table{
		Title:  "Ablation: serving execution against the paper's (AvgIO)",
		Header: []string{"Execution"},
	}
	paper, serving := []string{"NWC*"}, []string{"NWC* serving"}
	for _, d := range datasets {
		o.logf("ablation serving execution %s", d.Name)
		env, err := o.build(d)
		if err != nil {
			return nil, err
		}
		pa, err := RunNWC(env, queries, l, w, defaultN, core.SchemeNWCStar, o.Measure)
		if err != nil {
			return nil, err
		}
		sv, err := runNWC(env, queries, l, w, defaultN, core.SchemeNWCStar, o.Measure, core.Exec{})
		if err != nil {
			return nil, err
		}
		paper, serving = append(paper, fmtIO(pa.AvgIO)), append(serving, fmtIO(sv.AvgIO))
		servingTab.Header = append(servingTab.Header, d.Name)
	}
	servingTab.AddRow(paper...)
	servingTab.AddRow(serving...)
	return []*Table{buildTab, fanTab, iwpTab, servingTab}, nil
}
