package shard

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// TestRefusedPointLeavesBounds inserts points the shards refuse. The
// router routes them before a shard validates, and a refused point must
// not widen its shard's pruning bounds: a NaN bound cannot prune, and an
// infinite one covers the plane. After a refused single point the bounds
// and a pruned query's ShardsPruned are unchanged; after a mixed batch
// every bound is still finite.
func TestRefusedPointLeavesBounds(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	pts := []nwcq.Point{
		{X: 90, Y: 10, ID: 1}, {X: 91, Y: 11, ID: 2}, {X: 89, Y: 9, ID: 3},
		{X: 10, Y: 10, ID: 4}, {X: 10, Y: 90, ID: 5}, {X: 90, Y: 90, ID: 6},
	}
	q := nwcq.Query{X: 90, Y: 10, Length: 4, Width: 4, N: 3}
	pruned := func(sh *Sharded) uint64 {
		t.Helper()
		before := sh.RouterStats().ShardsPruned
		if _, err := sh.NWC(q); err != nil {
			t.Fatal(err)
		}
		return sh.RouterStats().ShardsPruned - before
	}
	for _, tc := range []struct {
		name  string
		batch []nwcq.Point
	}{
		{"NaN x", []nwcq.Point{{X: nan, Y: 5, ID: 100}}},
		{"NaN y", []nwcq.Point{{X: 5, Y: nan, ID: 100}}},
		{"+Inf x", []nwcq.Point{{X: inf, Y: 5, ID: 100}}},
		{"-Inf x", []nwcq.Point{{X: -inf, Y: 5, ID: 100}}},
		{"+Inf y", []nwcq.Point{{X: 5, Y: inf, ID: 100}}},
		{"mixed batch", []nwcq.Point{
			{X: 5, Y: 5, ID: 100}, {X: -20, Y: 5, ID: 101}, {X: nan, Y: 5, ID: 102},
			{X: 95, Y: -inf, ID: 103}, {X: 5, Y: 95, ID: 104}, {X: inf, Y: inf, ID: 105},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sh := buildBoth(t, pts, 4)
			sh.SetParallelism(1) // pruning counts are deterministic only sequentially
			bounds := slices.Clone(sh.shardBounds())
			wantPruned := pruned(sh)
			if wantPruned == 0 {
				t.Fatal("the query prunes no shard: the test shows nothing")
			}
			var err error
			if len(tc.batch) == 1 {
				err = sh.Insert(tc.batch[0])
			} else {
				err = sh.InsertBatch(tc.batch)
			}
			if err == nil {
				t.Fatal("a non-finite point was accepted")
			}
			for i, b := range sh.shardBounds() {
				if !finite(geom.Point{X: b.MinX, Y: b.MinY}) || !finite(geom.Point{X: b.MaxX, Y: b.MaxY}) {
					t.Fatalf("shard %d bounds %+v after the refusal", i, b)
				}
			}
			if len(tc.batch) > 1 {
				return
			}
			if got := sh.shardBounds(); !slices.Equal(got, bounds) {
				t.Fatalf("bounds %+v after the refused point, want %+v", got, bounds)
			}
			if got := pruned(sh); got != wantPruned {
				t.Fatalf("query prunes %d shards after the refused point, want %d", got, wantPruned)
			}
		})
	}
}

// TestMutationCountsMatchIndex runs one script of single, batch and
// refused mutations on an Index and on a Sharded router. Both must count
// the same insert and delete operations and errors.
func TestMutationCountsMatchIndex(t *testing.T) {
	single, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(23)), 30), 4)
	a, b := nwcq.Point{X: 10, Y: 10, ID: 601}, nwcq.Point{X: 90, Y: 90, ID: 602}
	c, bad := nwcq.Point{X: 60, Y: 20, ID: 603}, nwcq.Point{X: math.NaN(), Y: 1, ID: 604}
	absent := nwcq.Point{X: 1, Y: 1, ID: 999}
	for _, m := range []nwcq.Mutator{single, sh} {
		steps := []error{
			m.Insert(a),
			m.Insert(bad),
			m.InsertBatch([]nwcq.Point{b, c}),
			m.InsertBatch([]nwcq.Point{bad, {X: 30, Y: 30, ID: 605}}),
			m.InsertBatch(nil),
		}
		_, err := m.Delete(a)
		steps = append(steps, err)
		_, err = m.Delete(absent)
		steps = append(steps, err)
		_, err = m.DeleteBatch([]nwcq.Point{b, absent, c})
		steps = append(steps, err)
		_, err = m.DeleteBatch(nil)
		steps = append(steps, err)
		for i, err := range steps {
			if refused := i == 1 || i == 3; (err != nil) != refused {
				t.Fatalf("%T step %d: err = %v", m, i, err)
			}
		}
	}
	want, got := single.Metrics().Queries, sh.Metrics().Queries
	for _, kind := range []string{"insert", "delete"} {
		if got[kind].Count != want[kind].Count || got[kind].Errors != want[kind].Errors {
			t.Fatalf("%s: router counts %d ops, %d errors; the index %d, %d",
				kind, got[kind].Count, got[kind].Errors, want[kind].Count, want[kind].Errors)
		}
	}
	if want["insert"].Count != 5 || want["insert"].Errors != 2 || want["delete"].Count != 4 {
		t.Fatalf("index counts insert %+v, delete %+v; want 5 ops with 2 errors, 4 ops", want["insert"], want["delete"])
	}
}

// TestConcurrentMutationStraddling runs boundary-straddling queries
// while a writer mutates points confined to shard 0's interior. Every
// query must observe some consistent version: its answer is checked
// for feasibility, and since all mutations are monotone inserts of a
// tight cluster, the straddling answer must equal the static oracle
// (the mutations can never join a boundary group). Run under -race in
// CI to exercise the published-view coordination across shards.
func TestConcurrentMutationStraddling(t *testing.T) {
	// A fixed boundary cluster far from the mutation site.
	var pts []nwcq.Point
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 30; i++ {
		pts = append(pts, nwcq.Point{
			X: 48 + rng.Float64()*4, Y: 70 + rng.Float64()*6, ID: uint64(i + 1),
		})
	}
	sh, err := NewSharded(pts, Options{Shards: 4, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	oracle := core.BruteForceNWC(pts,
		core.Query{Q: geom.Point{X: 50, Y: 73}, L: 5, W: 5, N: 4}, core.MeasureMax)
	if !oracle.Found {
		t.Fatal("bad fixture: oracle found nothing")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Writer: churn points deep inside shard 0 (far from x=50,y=50
		// and from the query cluster).
		id := uint64(100_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := nwcq.Point{X: 5 + rng.Float64()*10, Y: 5 + rng.Float64()*10, ID: id}
			id++
			if err := sh.Insert(p); err != nil {
				t.Error(err)
				return
			}
			if _, err := sh.Delete(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	q := nwcq.Query{X: 50, Y: 73, Length: 5, Width: 5, N: 4}
	kq := nwcq.KQuery{Query: q, K: 2, M: 1}
	for i := 0; i < 200; i++ {
		res, err := sh.NWC(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || math.Abs(res.Dist-oracle.Group.Dist) > distEps {
			t.Fatalf("iter %d: dist %v/%g, oracle %g", i, res.Found, res.Dist, oracle.Group.Dist)
		}
		if i%10 == 0 {
			kres, err := sh.KNWC(kq)
			if err != nil {
				t.Fatal(err)
			}
			if !kres.Found || math.Abs(kres.Groups[0].Dist-oracle.Group.Dist) > distEps {
				t.Fatalf("iter %d: kNWC best %g, oracle %g", i, kres.Groups[0].Dist, oracle.Group.Dist)
			}
		}
	}
	close(stop)
	wg.Wait()
}
