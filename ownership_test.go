package nwcq

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"nwcq/internal/core"
)

// Point, Group and Stats are one type from the engine to the caller, so
// nothing is copied at a seam; these tests hold who owns what instead.

// scribble overwrites every element of pts with something no dataset
// here holds.
func scribble(pts []Point) {
	for i := range pts {
		pts[i] = Point{X: -1e9, Y: 1e9, ID: ^uint64(i)}
	}
}

// TestCallersSliceStaysTheCallers: Build, BuildPaged, InsertBatch and
// DeleteBatch neither reorder nor retain the slice they are handed — it
// is scribbled over after each call, and the index still answers like the
// oracle over the points that were in it.
func TestCallersSliceStaysTheCallers(t *testing.T) {
	base := testPoints(240, 11)
	extra := testPoints(80, 12)
	for i := range extra {
		extra[i].ID += 10000
	}
	const deleted = 40
	live := append(slices.Clone(base[deleted:]), extra...)
	type check struct {
		q    Query
		nwc  core.Result
		knwc []core.Group
	}
	var checks []check
	for _, m := range []Measure{MaxDistance, MinDistance, AvgDistance, WindowDistance} {
		for _, at := range [][2]float64{{500, 500}, {120, 880}, {990, 10}} {
			q := Query{X: at[0], Y: at[1], Length: 240, Width: 180, N: 4, Measure: m}
			cq := core.Query{Q: Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}
			checks = append(checks, check{q, core.BruteForceNWC(live, cq, m),
				core.BruteForceKNWC(live, core.KNWCQuery{Query: cq, K: 3, M: 1}, m)})
		}
	}

	builds := map[string]func([]Point) (*Index, error){
		"Build": func(pts []Point) (*Index, error) { return Build(pts) },
		"Build/bulk": func(pts []Point) (*Index, error) {
			return Build(pts, WithBulkLoad())
		},
		"BuildPaged": func(pts []Point) (*Index, error) {
			px, err := BuildPaged(pts, filepath.Join(t.TempDir(), "own.nwcq"), WithBulkLoad())
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { px.Close() })
			return &px.Index, nil
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			// handed passes a clone of pts to call, checks the call left it
			// in order, then scribbles over it.
			handed := func(what string, pts []Point, call func([]Point) error) {
				t.Helper()
				given := slices.Clone(pts)
				if err := call(given); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !slices.Equal(given, pts) {
					t.Fatalf("%s reordered the caller's slice", what)
				}
				scribble(given)
			}
			var ix *Index
			handed(name, base, func(pts []Point) (err error) {
				ix, err = build(pts)
				return err
			})
			handed("InsertBatch", extra, ix.InsertBatch)
			handed("DeleteBatch", base[:deleted], func(pts []Point) error {
				founds, err := ix.DeleteBatch(pts)
				if err == nil && slices.Contains(founds, false) {
					t.Fatal("DeleteBatch missed an indexed point")
				}
				return err
			})
			if ix.Len() != len(live) {
				t.Fatalf("%d points indexed, want %d", ix.Len(), len(live))
			}
			for _, c := range checks {
				got, err := ix.NWC(c.q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Found != c.nwc.Found || math.Abs(got.Dist-c.nwc.Dist) > 1e-9 {
					t.Fatalf("%+v: found %v dist %g, the oracle's %v %g", c.q, got.Found, got.Dist, c.nwc.Found, c.nwc.Dist)
				}
				kgot, err := ix.KNWC(KQuery{Query: c.q, K: 3, M: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(kgot.Groups) != len(c.knwc) {
					t.Fatalf("%+v: %d groups, the oracle's %d", c.q, len(kgot.Groups), len(c.knwc))
				}
				for i, g := range kgot.Groups {
					if math.Abs(g.Dist-c.knwc[i].Dist) > 1e-9 {
						t.Fatalf("%+v: group %d at %g, the oracle's at %g", c.q, i, g.Dist, c.knwc[i].Dist)
					}
				}
			}
		})
	}
}

// cloneGroups copies groups deeply enough to compare after a scribble.
func cloneGroups(groups []Group) []Group {
	out := slices.Clone(groups)
	for i := range out {
		out[i].Objects = slices.Clone(out[i].Objects)
	}
	return out
}

func sameGroups(a, b []Group) bool {
	return slices.EqualFunc(a, b, func(g, h Group) bool {
		return g.Dist == h.Dist && g.Window == h.Window && slices.Equal(g.Objects, h.Objects)
	})
}

// TestResultSurvivesAnotherQuerysScribble: what a query returns is
// allocated for it — the engine's scratch never escapes — so a held
// Result or KResult is untouched by later queries and by the caller
// overwriting their objects, with the result cache and without.
func TestResultSurvivesAnotherQuerysScribble(t *testing.T) {
	pts := testPoints(3000, 5)
	for name, opts := range map[string][]BuildOption{
		"uncached": {WithBulkLoad()},
		"cached":   {WithBulkLoad(), WithResultCache(64)},
	} {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(pts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			qa := KQuery{Query: Query{X: 500, Y: 500, Length: 80, Width: 80, N: 5}, K: 3, M: 1}
			held, err := ix.NWC(qa.Query)
			if err != nil || !held.Found {
				t.Fatalf("found %v, err %v", held.Found, err)
			}
			kheld, err := ix.KNWC(qa)
			if err != nil || len(kheld.Groups) != qa.K {
				t.Fatalf("%d groups, err %v", len(kheld.Groups), err)
			}
			want, kwant := cloneGroups([]Group{held.Group}), cloneGroups(kheld.Groups)

			// Neighbouring queries run over the same anchors with the same
			// pooled scratch; their answers are then overwritten.
			for dx := 1.0; dx <= 4; dx++ {
				qb := qa
				qb.X += dx
				other, err := ix.NWC(qb.Query)
				if err != nil {
					t.Fatal(err)
				}
				scribble(other.Objects)
				kother, err := ix.KNWC(qb)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range kother.Groups {
					scribble(g.Objects)
				}
			}
			if !sameGroups([]Group{held.Group}, want) {
				t.Fatal("a held Result changed under later queries")
			}
			if !sameGroups(kheld.Groups, kwant) {
				t.Fatal("a held KResult changed under later queries")
			}
			// Asked again — from the cache where there is one — the answer
			// is still the one first given.
			again, err := ix.NWC(qa.Query)
			if err != nil || !sameGroups([]Group{again.Group}, want) {
				t.Fatalf("NWC asked again differs (err %v)", err)
			}
			kagain, err := ix.KNWC(qa)
			if err != nil || !sameGroups(kagain.Groups, kwant) {
				t.Fatalf("KNWC asked again differs (err %v)", err)
			}
		})
	}
}
