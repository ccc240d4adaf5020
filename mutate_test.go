package nwcq

import (
	"math"
	"math/rand"
	"testing"
)

func TestInsertDeleteRoundTrip(t *testing.T) {
	pts := testPoints(1500, 20)
	idx, err := Build(pts[:1000])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[1000:] {
		if err := idx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 1500 {
		t.Fatalf("Len = %d", idx.Len())
	}
	// A freshly built index over the same points must agree exactly.
	fresh, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 500, Y: 500, Length: 80, Width: 80, N: 6}
	a, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || math.Abs(a.Dist-b.Dist) > 1e-9 {
		t.Fatalf("mutated index dist %g, fresh %g", a.Dist, b.Dist)
	}

	// Delete a third of the points and compare again.
	rng := rand.New(rand.NewSource(21))
	perm := rng.Perm(1500)
	removed := map[int]bool{}
	for _, i := range perm[:500] {
		ok, err := idx.Delete(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%v) found nothing", pts[i])
		}
		removed[i] = true
	}
	var rest []Point
	for i, p := range pts {
		if !removed[i] {
			rest = append(rest, p)
		}
	}
	fresh2, err := Build(rest)
	if err != nil {
		t.Fatal(err)
	}
	a, err = idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err = fresh2.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || (a.Found && math.Abs(a.Dist-b.Dist) > 1e-9) {
		t.Fatalf("after deletes: mutated dist %v/%g, fresh %v/%g", a.Found, a.Dist, b.Found, b.Dist)
	}

	// Deleting something absent reports false without error.
	ok, err := idx.Delete(Point{X: -1, Y: -1, ID: 424242})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("absent delete reported true")
	}
}

func TestInsertOutsideSpaceRebuildsGrid(t *testing.T) {
	pts := testPoints(500, 22) // coordinates in [0, 1000]
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Way outside the original bounding box.
	far := Point{X: 5000, Y: 5000, ID: 999999}
	if err := idx.Insert(far); err != nil {
		t.Fatal(err)
	}
	// A DEP-using query near the new point must see it.
	res, err := idx.NWC(Query{X: 4990, Y: 4990, Length: 50, Width: 50, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Objects[0].ID != far.ID {
		t.Fatalf("far point not found after grid rebuild: %+v", res)
	}
}

func TestIWPFollowsMutations(t *testing.T) {
	pts := testPoints(800, 23)
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 500, Y: 500, Length: 80, Width: 80, N: 4, Scheme: SchemeIWP}
	if _, err := idx.NWC(q); err != nil {
		t.Fatal(err)
	}
	// Mutate heavily, enough to reshape the tree, then query with IWP
	// again: results must match a plain-scheme query on the same data.
	extra := testPoints(800, 24)
	for i, p := range extra {
		p.ID += 10000
		if err := idx.Insert(p); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := idx.Delete(pts[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	withIWP, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	qPlain := q
	qPlain.Scheme = SchemeNWC
	base, err := idx.NWC(qPlain)
	if err != nil {
		t.Fatal(err)
	}
	if withIWP.Found != base.Found || math.Abs(withIWP.Dist-base.Dist) > 1e-9 {
		t.Fatalf("IWP index out of step with the tree: IWP %v/%g, plain %v/%g",
			withIWP.Found, withIWP.Dist, base.Found, base.Dist)
	}
}

func TestInsertValidation(t *testing.T) {
	idx, err := Build(testPoints(10, 25))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(Point{X: math.NaN(), Y: 0}); err == nil {
		t.Error("NaN insert accepted")
	}
	if err := idx.Insert(Point{X: math.Inf(1), Y: 0}); err == nil {
		t.Error("Inf insert accepted")
	}
}
