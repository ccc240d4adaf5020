// Command nwcquery answers ad-hoc NWC/kNWC queries over a CSV dataset.
//
//	nwcquery -data shops.csv -x 3100 -y 5280 -l 50 -w 50 -n 8
//	nwcquery -data shops.csv -x 3100 -y 5280 -l 50 -w 50 -n 8 -k 3 -m 1
//	nwcquery -data shops.csv -x 1 -y 1 -l 10 -w 10 -n 4 -scheme NWC+ -measure avg
//	nwcquery -data shops.csv -x 3100 -y 5280 -l 50 -w 50 -n 8 -explain
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"nwcq"
	"nwcq/internal/datagen"
)

func main() {
	var (
		data    = flag.String("data", "", "CSV dataset file (x,y[,id] per line)")
		x       = flag.Float64("x", 0, "query x")
		y       = flag.Float64("y", 0, "query y")
		l       = flag.Float64("l", 8, "window length")
		w       = flag.Float64("w", 8, "window width")
		n       = flag.Int("n", 8, "objects to retrieve")
		k       = flag.Int("k", 1, "groups to retrieve (k > 1 runs a kNWC query)")
		m       = flag.Int("m", 0, "max identical objects between groups (kNWC)")
		scheme  = flag.String("scheme", "NWC*", "NWC, SRR, DIP, DEP, IWP, NWC+ or NWC*")
		measure = flag.String("measure", "max", "max, min, avg or window")
		bulk    = flag.Bool("bulk", true, "bulk-load the index")
		explain = flag.Bool("explain", false, "trace the query and print the per-phase breakdown")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "nwcquery: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*data)
	if err != nil {
		fatal(err)
	}
	pts, err := datagen.LoadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	sch, err := parseScheme(*scheme)
	if err != nil {
		fatal(err)
	}
	meas, err := parseMeasure(*measure)
	if err != nil {
		fatal(err)
	}

	var opts []nwcq.BuildOption
	if *bulk {
		opts = append(opts, nwcq.WithBulkLoad())
	}
	idx, err := nwcq.Build(pts, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d points (tree height %d)\n", idx.Len(), idx.TreeHeight())

	q := nwcq.Query{X: *x, Y: *y, Length: *l, Width: *w, N: *n, Scheme: sch, Measure: meas}
	if *k <= 1 {
		var (
			res nwcq.Result
			tr  *nwcq.QueryTrace
		)
		if *explain {
			res, tr, err = idx.ExplainNWC(context.Background(), q)
		} else {
			res, err = idx.NWC(q)
		}
		if err != nil {
			fatal(err)
		}
		if !res.Found {
			fmt.Println("no qualified window: no", *n, "objects fit a", *l, "x", *w, "window")
			printTrace(tr)
			return
		}
		printGroup(res.Group, 0)
		printStats(res.Stats)
		printTrace(tr)
		return
	}
	kq := nwcq.KQuery{Query: q, K: *k, M: *m}
	var (
		res nwcq.KResult
		tr  *nwcq.QueryTrace
	)
	if *explain {
		res, tr, err = idx.ExplainKNWC(context.Background(), kq)
	} else {
		res, err = idx.KNWCCtx(context.Background(), kq)
	}
	if err != nil {
		fatal(err)
	}
	if !res.Found {
		fmt.Println("no qualified window found")
		printTrace(tr)
		return
	}
	for i, g := range res.Groups {
		printGroup(g, i+1)
	}
	printStats(res.Stats)
	printTrace(tr)
}

func printTrace(tr *nwcq.QueryTrace) {
	if tr == nil {
		return
	}
	fmt.Println()
	fmt.Print(tr.Render())
}

func printGroup(g nwcq.Group, rank int) {
	if rank > 0 {
		fmt.Printf("group %d: ", rank)
	}
	fmt.Printf("dist=%.3f window=[%.2f,%.2f]x[%.2f,%.2f]\n",
		g.Dist, g.Window.MinX, g.Window.MaxX, g.Window.MinY, g.Window.MaxY)
	for _, o := range g.Objects {
		fmt.Printf("  id=%d (%.2f, %.2f)\n", o.ID, o.X, o.Y)
	}
}

func printStats(st nwcq.Stats) {
	fmt.Printf("I/O: %d node visits; %d objects processed (%d skipped), %d nodes pruned, %d window queries, %d/%d windows qualified\n",
		st.NodeVisits, st.ObjectsProcessed, st.ObjectsSkipped, st.NodesPruned,
		st.WindowQueries, st.QualifiedWindows, st.CandidateWindows)
}

func parseScheme(s string) (nwcq.Scheme, error) {
	switch strings.ToUpper(s) {
	case "NWC":
		return nwcq.SchemeNWC, nil
	case "SRR":
		return nwcq.SchemeSRR, nil
	case "DIP":
		return nwcq.SchemeDIP, nil
	case "DEP":
		return nwcq.SchemeDEP, nil
	case "IWP":
		return nwcq.SchemeIWP, nil
	case "NWC+":
		return nwcq.SchemeNWCPlus, nil
	case "NWC*":
		return nwcq.SchemeNWCStar, nil
	}
	return nwcq.Scheme{}, fmt.Errorf("unknown scheme %q", s)
}

func parseMeasure(s string) (nwcq.Measure, error) {
	switch strings.ToLower(s) {
	case "max":
		return nwcq.MaxDistance, nil
	case "min":
		return nwcq.MinDistance, nil
	case "avg":
		return nwcq.AvgDistance, nil
	case "window":
		return nwcq.WindowDistance, nil
	}
	return 0, fmt.Errorf("unknown measure %q", s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nwcquery: %v\n", err)
	os.Exit(1)
}
