// Package core implements the paper's contribution: Nearest Window
// Cluster (NWC) queries and their k-group extension (kNWC), processed by
// the NWC algorithm of Section 3.2 with the four optimisation techniques
// of Section 3.3 — search region reduction (SRR), distance-based pruning
// (DIP), density-based pruning (DEP) and incremental window query
// processing (IWP).
//
// Given a query point q, window length l, width w and object count n,
// NWC(q, l, w, n) returns the n objects that fit in some l × w window
// such that the distance from q to those objects is minimal over all
// such windows (Definition 1). The engine follows the problem
// transformation of Section 2.1: it enumerates qualified windows in an
// order driven by a best-first traversal of the R*-tree, keeping the
// best objects found so far and using their distance to prune.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"nwcq/internal/geom"
	"nwcq/internal/grid"
	"nwcq/internal/iwp"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// Measure selects the distance between the query point and a group of n
// objects (Section 2.1, Equations 1–4). Every measure is lower-bounded
// by MINDIST(q, qwin), which is what makes the shared pruning machinery
// sound.
type Measure int

const (
	// MeasureMax is Equation (2): the distance to the farthest of the n
	// objects. It is the default — "all n choices are within this
	// distance" matches the motivating scenario.
	MeasureMax Measure = iota
	// MeasureMin is Equation (1): the distance to the nearest of the n
	// objects.
	MeasureMin
	// MeasureAvg is Equation (3): the mean distance to the n objects.
	MeasureAvg
	// MeasureWindow is Equation (4): the smallest MINDIST from q to any
	// qualified window containing the n objects.
	MeasureWindow
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case MeasureMax:
		return "max"
	case MeasureMin:
		return "min"
	case MeasureAvg:
		return "avg"
	case MeasureWindow:
		return "window"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Valid reports whether m is a known measure.
func (m Measure) Valid() bool { return m >= MeasureMax && m <= MeasureWindow }

// anchorReach returns how far from q an anchor can lie whose windows still
// matter under bound b (DESIGN.md §19). For a single best group under
// MeasureMax every object of a nearer group is nearer than b and one of
// them generates a window holding them all; under the other measures it may
// hold objects at any distance. A pool of distinct groups has b + pad: an
// anchor lies inside its windows, which past that fail the MINDIST gate.
func (m Measure) anchorReach(b, pad float64, single bool) float64 {
	switch {
	case !single:
		return b + pad
	case m == MeasureMax:
		return b
	}
	return math.Inf(1)
}

// errInvalidMeasure rejects unknown Measure values at the API boundary.
var errInvalidMeasure = errors.New("core: invalid measure")

// ParseMeasure is the inverse of Measure.String, in any case.
func ParseMeasure(name string) (Measure, error) {
	lower := strings.ToLower(name)
	for m := MeasureMax; m <= MeasureWindow; m++ {
		if lower == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown measure %q", name)
}

// Scheme selects which of the four optimisation techniques run a query,
// reproducing the schemes of Table 3. It records the techniques switched
// off, so the zero value is NWC*, every technique on, the default of
// every layer. A Scheme above SchemeNWC is not a scheme.
type Scheme uint8

const (
	noSRR Scheme = 1 << iota // search region reduction (Section 3.3.1)
	noDIP                    // distance-based pruning (Section 3.3.2)
	noDEP                    // density-based pruning (Section 3.3.3)
	noIWP                    // incremental window query processing (Section 3.3.4)
)

// The seven schemes evaluated in the paper (Table 3).
const (
	SchemeNWCStar Scheme = 0
	SchemeNWCPlus        = noDEP | noIWP
	SchemeSRR            = noDIP | noDEP | noIWP
	SchemeDIP            = noSRR | noDEP | noIWP
	SchemeDEP            = noSRR | noDIP | noIWP
	SchemeIWP            = noSRR | noDIP | noDEP
	SchemeNWC            = noSRR | noDIP | noDEP | noIWP
)

// PaperSchemes lists Table 3's schemes in its display order.
var PaperSchemes = []Scheme{SchemeNWC, SchemeSRR, SchemeDIP, SchemeDEP, SchemeIWP, SchemeNWCPlus, SchemeNWCStar}

// NewScheme builds the scheme that runs the techniques given as true.
func NewScheme(srr, dip, dep, iwp bool) Scheme {
	var s Scheme
	for i, on := range [...]bool{srr, dip, dep, iwp} {
		if !on {
			s |= 1 << i
		}
	}
	return s
}

// SRR, DIP, DEP and IWP report whether s runs the technique.
func (s Scheme) SRR() bool { return s&noSRR == 0 }
func (s Scheme) DIP() bool { return s&noDIP == 0 }
func (s Scheme) DEP() bool { return s&noDEP == 0 }
func (s Scheme) IWP() bool { return s&noIWP == 0 }

// schemeNames holds each scheme's name, indexed by its value: the paper's
// for Table 3's seven, the techniques it runs for the other nine.
var schemeNames = [SchemeNWC + 1]string{
	"NWC*", "DIP+DEP+IWP", "SRR+DEP+IWP", "DEP+IWP",
	"SRR+DIP+IWP", "DIP+IWP", "SRR+IWP", "IWP",
	"SRR+DIP+DEP", "DIP+DEP", "SRR+DEP", "DEP",
	"NWC+", "DIP", "SRR", "NWC",
}

// String implements fmt.Stringer using the paper's scheme names.
func (s Scheme) String() string {
	if s > SchemeNWC {
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
	return schemeNames[s]
}

// ParseScheme is the inverse of String on Table 3's schemes, in any case;
// it refuses the other nine combinations.
func ParseScheme(name string) (Scheme, error) {
	upper := strings.ToUpper(name)
	for _, s := range PaperSchemes {
		if upper == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// Query is an NWC query (q, l, w, n) per Definition 1.
type Query struct {
	Q geom.Point // query location
	L float64    // window length (x extent)
	W float64    // window width (y extent)
	N int        // number of objects to retrieve
}

// Validate reports whether the query parameters are usable.
func (q Query) Validate() error {
	if q.L <= 0 || q.W <= 0 {
		return fmt.Errorf("core: window %g x %g must be positive", q.L, q.W)
	}
	if q.N < 1 {
		return fmt.Errorf("core: n = %d must be at least 1", q.N)
	}
	if math.IsNaN(q.Q.X) || math.IsNaN(q.Q.Y) {
		return errors.New("core: query point is NaN")
	}
	return nil
}

// Group is one answer group: n objects clustered in an l × w window. It
// is the public nwcq.Group (an alias), and the one value that travels
// from the engine through the result cache and the shard router to the
// JSON encoder; its tags are the names it has on the wire.
//
// A group handed across a layer is read-only: the engine allocates what
// it returns (its scratch never escapes), every layer above shares that
// slice instead of copying it, and whoever needs Objects in another order
// clones first.
type Group struct {
	// Objects are the n result objects, ordered by ascending distance
	// to the query point.
	Objects []geom.Point `json:"objects"`
	// Dist is the group's distance to the query point under the query's
	// measure.
	Dist float64 `json:"dist"`
	// Window is the group's window, computed from its objects and the
	// query point: of the l × w windows that hold the objects, the one whose
	// centre is nearest q (per axis MinX = clamp(q.X − l/2, maxX − l,
	// minX)). It holds every object and its sides are l and w up to
	// rounding. Under MeasureWindow an NWC answer's Dist is its MINDIST to
	// q; a kNWC group's Dist is at least that (a window that yields the
	// group may lie farther).
	Window geom.Rect `json:"window"`
}

// OverlapCount returns |g ∩ o| by object identity (coordinates and ID).
func (g Group) OverlapCount(o Group) int {
	if len(g.Objects) > 32 {
		set := make(map[geom.Point]struct{}, len(g.Objects))
		for _, p := range g.Objects {
			set[p] = struct{}{}
		}
		n := 0
		for _, p := range o.Objects {
			if _, ok := set[p]; ok {
				n++
			}
		}
		return n
	}
	n := 0
	for _, p := range o.Objects {
		for _, s := range g.Objects {
			if p == s {
				n++
				break
			}
		}
	}
	return n
}

// Stats reports the work one query performed; it is the public
// nwcq.Stats (an alias) and its tags are the names it has on the wire.
// NodeVisits is the paper's performance metric: the number of R*-tree
// nodes read.
//
// Every field is accumulated on a carrier private to the query (the
// traversal threads a *Stats through the whole read path, and node
// visits are counted by a per-query tree Reader), so concurrent queries
// report exact, independent numbers.
type Stats struct {
	// NodeVisits is the number of index nodes read — the paper's I/O
	// cost metric.
	NodeVisits uint64 `json:"node_visits"`
	// ObjectsProcessed counts data objects popped and evaluated as window
	// anchors.
	ObjectsProcessed int `json:"objects_processed"`
	// ObjectsSkipped counts objects skipped by SRR or DEP before any
	// window query.
	ObjectsSkipped int `json:"objects_skipped"`
	// NodesPruned counts index nodes pruned by DIP or DEP.
	NodesPruned int `json:"nodes_pruned"`
	// WindowQueries counts window queries issued.
	WindowQueries int `json:"window_queries"`
	// CandidateWindows and QualifiedWindows count windows enumerated and,
	// of those, windows holding at least n objects. An anchor whose
	// candidates hold too few objects under the current bound for any of
	// its windows to improve it enumerates none (evaluateWindows), so on
	// dense data both counts are far below the number of windows that
	// exist. Neither is part of the wire's stats object: clients read
	// them from an explained query's trace counters.
	CandidateWindows int `json:"-"`
	QualifiedWindows int `json:"-"`
	// GridProbes counts density-grid upper-bound probes issued by DEP.
	GridProbes int `json:"grid_probes"`
}

// Add accumulates o into s: a router's sum over the shards it queried, a
// harness's sum over a run.
func (s *Stats) Add(o Stats) {
	s.NodeVisits += o.NodeVisits
	s.ObjectsProcessed += o.ObjectsProcessed
	s.ObjectsSkipped += o.ObjectsSkipped
	s.NodesPruned += o.NodesPruned
	s.WindowQueries += o.WindowQueries
	s.CandidateWindows += o.CandidateWindows
	s.QualifiedWindows += o.QualifiedWindows
	s.GridProbes += o.GridProbes
}

// TraceWork is what st holds for the query's explain trace
// (trace.Record.Trace).
func TraceWork(st Stats) trace.Work {
	return trace.Work{
		NodeVisits:       st.NodeVisits,
		GridProbes:       int64(st.GridProbes),
		WindowQueries:    int64(st.WindowQueries),
		CandidateWindows: int64(st.CandidateWindows),
		QualifiedWindows: int64(st.QualifiedWindows),
	}
}

// String renders the stats as a one-line explain summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"io=%d nodes; objects=%d (skipped %d), pruned=%d nodes, window-queries=%d, windows=%d/%d qualified, grid-probes=%d",
		s.NodeVisits, s.ObjectsProcessed, s.ObjectsSkipped, s.NodesPruned,
		s.WindowQueries, s.QualifiedWindows, s.CandidateWindows, s.GridProbes)
}

// Engine executes NWC and kNWC queries against one dataset snapshot.
type Engine struct {
	tree    *rstar.Tree
	density *grid.Density
	iwpIdx  *iwp.Index
}

// NewEngine builds an engine over tree. density may be nil if no scheme
// with DEP is used; iwpIdx may be nil if no scheme with IWP is used.
func NewEngine(tree *rstar.Tree, density *grid.Density, iwpIdx *iwp.Index) (*Engine, error) {
	if tree == nil {
		return nil, errors.New("core: nil tree")
	}
	return &Engine{tree: tree, density: density, iwpIdx: iwpIdx}, nil
}

// Tree returns the engine's R*-tree.
func (e *Engine) Tree() *rstar.Tree { return e.tree }

// Density returns the engine's density grid, nil if absent.
func (e *Engine) Density() *grid.Density { return e.density }

// IWPIndex returns the engine's IWP augmentation, nil if absent.
func (e *Engine) IWPIndex() *iwp.Index { return e.iwpIdx }

func (e *Engine) checkScheme(s Scheme) error {
	if s.DEP() && e.density == nil {
		return errors.New("core: scheme enables DEP but the engine has no density grid")
	}
	if s.IWP() && e.iwpIdx == nil {
		return errors.New("core: scheme enables IWP but the engine has no IWP index")
	}
	return nil
}
