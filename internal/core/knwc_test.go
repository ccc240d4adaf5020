package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nwcq/internal/geom"
)

// knwcSchemes are the two kNWC schemes the paper evaluates (Section
// 5.5), plus plain NWC as a pruning-free reference.
var knwcSchemes = []Scheme{SchemeNWC, SchemeNWCPlus, SchemeNWCStar}

// checkDefinition3 verifies the four criteria of Definition 3 for the
// returned groups against the exhaustive candidate universe.
func checkDefinition3(t *testing.T, pts []geom.Point, qy KNWCQuery, measure Measure, groups []Group, label string) {
	t.Helper()
	const eps = 1e-9
	// Criterion 1: each group is n objects inside an l × w window.
	for gi, g := range groups {
		if len(g.Objects) != qy.N {
			t.Fatalf("%s: group %d has %d objects, want %d", label, gi, len(g.Objects), qy.N)
		}
		if g.Window.Width() > qy.L+eps || g.Window.Height() > qy.W+eps {
			t.Fatalf("%s: group %d window %v exceeds %g x %g", label, gi, g.Window, qy.L, qy.W)
		}
		for _, o := range g.Objects {
			if !g.Window.ContainsPoint(o) {
				t.Fatalf("%s: group %d object %v outside window %v", label, gi, o, g.Window)
			}
		}
		if d := groupDist(qy.Q, g.Objects, g.Window, measure); math.Abs(d-g.Dist) > eps {
			t.Fatalf("%s: group %d dist %g, recomputed %g", label, gi, g.Dist, d)
		}
	}
	// Criterion 2: pairwise overlap within m (identical sets banned).
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			ov := groups[i].OverlapCount(groups[j])
			if ov > qy.M {
				t.Fatalf("%s: groups %d,%d share %d objects > m=%d", label, i, j, ov, qy.M)
			}
			if ov == qy.N {
				t.Fatalf("%s: groups %d,%d identical", label, i, j)
			}
		}
	}
	// Criterion 3: ascending distance order.
	for i := 1; i < len(groups); i++ {
		if groups[i].Dist < groups[i-1].Dist-eps {
			t.Fatalf("%s: groups out of order at %d: %g < %g", label, i, groups[i].Dist, groups[i-1].Dist)
		}
	}
	// Criterion 4 over the candidate universe: every candidate group
	// must be either at least as far as the k-th result, or blocked by a
	// closer-or-equal result group with overlap > m (or be one of the
	// results / an identical twin of one).
	if len(groups) < qy.K {
		// The list never filled; criterion 4 degenerates to "every
		// candidate is blocked or present".
	}
	distK := math.Inf(1)
	if len(groups) == qy.K {
		distK = groups[qy.K-1].Dist
	}
	for _, cand := range CandidateGroups(pts, qy.Query, measure) {
		if cand.Dist >= distK-eps {
			continue // condition 1 of criterion 4
		}
		blocked := false
		for _, g := range groups {
			if g.Dist <= cand.Dist+eps {
				ov := g.OverlapCount(cand)
				if ov > qy.M || ov == qy.N {
					blocked = true
					break
				}
			}
		}
		if !blocked {
			t.Fatalf("%s: candidate dist=%g objects=%v neither returned nor blocked (distK=%g, returned %d groups)",
				label, cand.Dist, cand.Objects, distK, len(groups))
		}
	}
}

func TestKNWCSatisfiesDefinition3(t *testing.T) {
	configs := []struct {
		n         int
		clustered bool
		seed      int64
	}{
		{12, false, 1}, {25, true, 2}, {40, false, 3}, {40, true, 4}, {70, true, 5},
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(cfg.seed))
		pts := genPoints(rng, cfg.n, cfg.clustered)
		eng := buildEngine(t, pts, 4, 50)
		for trial := 0; trial < 5; trial++ {
			qy := KNWCQuery{
				Query: Query{
					Q: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
					L: rng.Float64()*120 + 5,
					W: rng.Float64()*120 + 5,
					N: 1 + rng.Intn(4),
				},
				K: 1 + rng.Intn(4),
			}
			qy.M = rng.Intn(qy.N) // m < n keeps groups meaningfully distinct
			for _, measure := range allMeasures {
				for _, scheme := range knwcSchemes {
					groups, _, err := eng.KNWC(context.Background(), qy, scheme, measure, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					checkDefinition3(t, pts, qy, measure, groups,
						scheme.String()+"/"+measure.String())
				}
			}
		}
	}
}

// TestKNWCFirstGroupIsOptimal: the nearest group of a kNWC answer always
// matches the NWC optimum — it can never be displaced or pruned.
func TestKNWCFirstGroupIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := genPoints(rng, 60, true)
	eng := buildEngine(t, pts, 4, 50)
	for trial := 0; trial < 8; trial++ {
		qy := KNWCQuery{
			Query: Query{
				Q: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				L: rng.Float64()*100 + 5,
				W: rng.Float64()*100 + 5,
				N: 1 + rng.Intn(4),
			},
			K: 1 + rng.Intn(5),
		}
		qy.M = rng.Intn(qy.N)
		want := BruteForceNWC(pts, qy.Query, MeasureMax)
		for _, scheme := range knwcSchemes {
			groups, _, err := eng.KNWC(context.Background(), qy, scheme, MeasureMax, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Found {
				if len(groups) != 0 {
					t.Fatalf("scheme %v returned %d groups with no qualified window", scheme, len(groups))
				}
				continue
			}
			if len(groups) == 0 {
				t.Fatalf("scheme %v returned nothing, NWC optimum dist %g", scheme, want.Dist)
			}
			if math.Abs(groups[0].Dist-want.Dist) > 1e-9 {
				t.Fatalf("scheme %v first group dist %g, NWC optimum %g", scheme, groups[0].Dist, want.Dist)
			}
		}
	}
}

// TestKNWCMatchesGreedyReference compares full result distances against
// the greedy oracle: the pool-based maintenance is order-insensitive, so
// every scheme must reproduce the greedy selection exactly — on 50
// clustered points under random parameters, and on 2,000 uniform ones at
// the density and parameters of the benchmark's kNWC (7.2 objects to a
// 60 × 60 window, n = 8, k = 3, m = 1).
func TestKNWCMatchesGreedyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := genPoints(rng, 50, true)
	eng := buildEngine(t, pts, 4, 50)
	var trials []KNWCQuery
	for trial := 0; trial < 12; trial++ {
		qy := KNWCQuery{
			Query: Query{
				Q: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				L: rng.Float64()*100 + 10,
				W: rng.Float64()*100 + 10,
				N: 1 + rng.Intn(3),
			},
			K: 1 + rng.Intn(4),
		}
		qy.M = rng.Intn(qy.N)
		trials = append(trials, qy)
	}
	checkGreedy(t, eng, pts, trials)

	pts = genPoints(rng, 2000, false)
	eng = buildEngine(t, pts, 16, 25)
	trials = trials[:0]
	for trial := 0; trial < 3; trial++ {
		q := geom.Point{X: 200 + rng.Float64()*600, Y: 200 + rng.Float64()*600}
		trials = append(trials, KNWCQuery{Query: Query{Q: q, L: 60, W: 60, N: 8}, K: 3, M: 1})
	}
	checkGreedy(t, eng, pts, trials)
}

func checkGreedy(t *testing.T, eng *Engine, pts []geom.Point, trials []KNWCQuery) {
	t.Helper()
	for _, qy := range trials {
		for _, measure := range allMeasures {
			want := BruteForceKNWC(pts, qy, measure)
			for _, scheme := range knwcSchemes {
				got, _, err := eng.KNWC(context.Background(), qy, scheme, measure, Exec{})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("scheme %v measure %v qy %+v: %d groups, greedy has %d",
						scheme, measure, qy, len(got), len(want))
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("scheme %v measure %v qy %+v: group %d dist %g, greedy %g",
							scheme, measure, qy, i, got[i].Dist, want[i].Dist)
					}
				}
			}
		}
	}
}

func TestKNWCK1EqualsNWC(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := genPoints(rng, 2000, true)
	eng := buildEngine(t, pts, 10, 25)
	for trial := 0; trial < 6; trial++ {
		q := Query{
			Q: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			L: rng.Float64()*30 + 5,
			W: rng.Float64()*30 + 5,
			N: 1 + rng.Intn(6),
		}
		nwc, _, err := eng.NWC(context.Background(), q, SchemeNWCStar, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		groups, _, err := eng.KNWC(context.Background(), KNWCQuery{Query: q, K: 1, M: 0}, SchemeNWCStar, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if nwc.Found != (len(groups) == 1) {
			t.Fatalf("k=1 found mismatch: NWC %v, kNWC %d groups", nwc.Found, len(groups))
		}
		if nwc.Found && math.Abs(groups[0].Dist-nwc.Dist) > 1e-9 {
			t.Fatalf("k=1 dist %g, NWC dist %g", groups[0].Dist, nwc.Dist)
		}
	}
}

func TestKNWCMoreGroupsCostMore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := genPoints(rng, 4000, true)
	eng := buildEngine(t, pts, 16, 25)
	q := Query{Q: geom.Point{X: 500, Y: 500}, L: 20, W: 20, N: 4}
	var prev uint64
	for _, k := range []int{1, 4, 16} {
		_, st, err := eng.KNWC(context.Background(), KNWCQuery{Query: q, K: k, M: 1}, SchemeNWCStar, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if st.NodeVisits < prev {
			t.Errorf("k=%d visits %d below k-smaller visits %d", k, st.NodeVisits, prev)
		}
		prev = st.NodeVisits
	}
}

func TestKNWCLargerMIsEasier(t *testing.T) {
	// Section 5.6: larger m admits more nearby groups, so the k-th
	// group's distance cannot grow with m.
	rng := rand.New(rand.NewSource(25))
	pts := genPoints(rng, 3000, true)
	eng := buildEngine(t, pts, 16, 25)
	q := Query{Q: geom.Point{X: 500, Y: 500}, L: 25, W: 25, N: 6}
	prevDist := math.Inf(1)
	first := true
	for _, m := range []int{5, 3, 1, 0} { // descending m
		groups, _, err := eng.KNWC(context.Background(), KNWCQuery{Query: q, K: 4, M: m}, SchemeNWCStar, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) == 0 {
			continue
		}
		last := groups[len(groups)-1].Dist
		if !first && last < prevDist-1e-9 {
			t.Errorf("m=%d last-group dist %g closer than larger-m dist %g", m, last, prevDist)
		}
		prevDist, first = last, false
	}
}

func TestKNWCValidation(t *testing.T) {
	eng := buildEngine(t, genPoints(rand.New(rand.NewSource(26)), 10, false), 8, 50)
	ok := Query{Q: geom.Point{X: 1, Y: 1}, L: 5, W: 5, N: 2}
	bad := []KNWCQuery{
		{Query: ok, K: 0, M: 0},
		{Query: ok, K: -3, M: 0},
		{Query: ok, K: 2, M: -1},
		{Query: Query{Q: geom.Point{}, L: 0, W: 5, N: 1}, K: 1, M: 0},
	}
	for _, qy := range bad {
		if _, _, err := eng.KNWC(context.Background(), qy, SchemeNWC, MeasureMax, Exec{}); err == nil {
			t.Errorf("kNWC query %+v accepted", qy)
		}
	}
	if _, _, err := eng.KNWC(context.Background(), KNWCQuery{Query: ok, K: 1, M: 0}, SchemeNWC, Measure(42), Exec{}); err == nil {
		t.Error("invalid measure accepted")
	}
}

func TestKNWCPoolMaintenance(t *testing.T) {
	mk := func(dist float64, ids ...uint64) Group {
		g := Group{Dist: dist}
		for _, id := range ids {
			g.Objects = append(g.Objects, geom.Point{X: float64(id), Y: 0, ID: id})
		}
		return g
	}
	// Eviction chain: B (mid) arrives, C (far, blocked by B under the
	// paper's Steps 1–5) arrives, then A (closest, overlapping B)
	// displaces B. The pool-based maintenance recovers C.
	s := newKNWCState(2, 0)
	s.offerGroup(mk(5, 1, 2)) // B
	s.offerGroup(mk(9, 2, 4)) // C overlaps B: blocked while B is accepted
	s.offerGroup(mk(1, 1, 7)) // A overlaps B, evicts it from the greedy set
	got := s.result()
	if len(got) != 2 || got[0].Dist != 1 || got[1].Dist != 9 {
		t.Fatalf("groups after eviction chain: %+v", got)
	}
	// Exact duplicates collapse even when m >= n allows them.
	s = newKNWCState(3, 5)
	s.offerGroup(mk(2, 1, 2))
	s.offerGroup(mk(2, 1, 2))
	if got := s.result(); len(got) != 1 {
		t.Fatalf("duplicate group retained: %+v", got)
	}
	// Same object set through a closer window keeps the smaller
	// distance (MeasureWindow semantics).
	s = newKNWCState(2, 0)
	s.offerGroup(mk(7, 1, 2))
	s.offerGroup(mk(3, 1, 2))
	if got := s.result(); len(got) != 1 || got[0].Dist != 3 {
		t.Fatalf("min-dist dedup failed: %+v", got)
	}
	// A candidate farther than the full greedy list is ignored.
	s = newKNWCState(1, 0)
	s.offerGroup(mk(1, 1))
	s.offerGroup(mk(2, 2))
	if got := s.result(); len(got) != 1 || got[0].Dist != 1 {
		t.Fatalf("far candidate displaced the best: %+v", got)
	}
	if b := s.bound(); b != 1 {
		t.Fatalf("bound = %g, want 1", b)
	}
	// Overlap with a closer group blocks greedy acceptance.
	s = newKNWCState(3, 0)
	s.offerGroup(mk(1, 1, 2))
	s.offerGroup(mk(2, 2, 3))
	if got := s.result(); len(got) != 1 {
		t.Fatalf("overlap violation accepted: %+v", got)
	}
}

func TestKNWCPoolCompaction(t *testing.T) {
	s := newKNWCState(2, 0)
	// Fill beyond the compaction limit with disjoint singleton groups.
	for i := 0; i < compactLimit+10; i++ {
		g := Group{
			Dist:    float64(i%97) + 1, // bounded distances so the bound stays small
			Objects: []geom.Point{{X: float64(i), Y: 0, ID: uint64(i)}},
		}
		s.offerGroup(g)
	}
	if len(s.pool) > compactLimit {
		t.Fatalf("pool grew to %d entries, limit %d", len(s.pool), compactLimit)
	}
	got := s.result()
	if len(got) != 2 || got[0].Dist != 1 || got[1].Dist != 1 {
		t.Fatalf("compacted pool result: %+v", got)
	}
	// Index stays consistent after compaction.
	if len(s.held) != len(s.pool) {
		t.Fatalf("index holds %d keys for %d pool entries", len(s.held), len(s.pool))
	}
	for key, dist := range s.held {
		if pos := s.position(dist, []byte(key)); pos == len(s.pool) || s.pool[pos].key != key || s.pool[pos].g.Dist != dist {
			t.Fatal("index out of sync after compaction")
		}
	}
}
