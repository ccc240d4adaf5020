package shard

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// TestShardedMutationOracle applies a randomised mutation script
// through the router while mirroring it on a plain slice, checking the
// routed boundary-straddling answers against the brute-force oracle
// every few steps. The dir input runs the script on paged, WAL-backed
// shards and closes and reopens the directory halfway through: Len and
// the answer must match the mirror on both sides of the reopen.
func TestShardedMutationOracle(t *testing.T) {
	for _, name := range []string{"memory", "dir"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			pts := straddlePoints(rng, 40)
			opt := Options{Shards: 4, Space: space}
			if name == "dir" {
				opt.Dir = t.TempDir()
			}
			sh, err := NewSharded(pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { sh.Close() }()
			mirror := append([]nwcq.Point(nil), pts...)
			check := func(step int) {
				t.Helper()
				if sh.Len() != len(mirror) {
					t.Fatalf("step %d: Len=%d, want %d", step, sh.Len(), len(mirror))
				}
				q := nwcq.Query{X: 50, Y: 50, Length: 7, Width: 7, N: 3}
				oracle := core.BruteForceNWC(mirror,
					core.Query{Q: geom.Point{X: 50, Y: 50}, L: 7, W: 7, N: 3}, core.MeasureMax)
				got, err := sh.NWC(q)
				if err != nil {
					t.Fatalf("step %d query: %v", step, err)
				}
				if got.Found != oracle.Found ||
					(got.Found && math.Abs(got.Dist-oracle.Group.Dist) > distEps) {
					t.Fatalf("step %d: dist %v/%g, oracle %v/%g",
						step, got.Found, got.Dist, oracle.Found, oracle.Group.Dist)
				}
			}

			nextID := uint64(10_000)
			for step := 0; step < 60; step++ {
				if step == 30 && opt.Dir != "" {
					check(step)
					if err := sh.Close(); err != nil {
						t.Fatal(err)
					}
					re, err := OpenSharded(opt.Dir, Options{})
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					sh = re
					check(step)
				}
				if rng.Intn(2) == 0 || len(mirror) < 10 {
					p := nwcq.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: nextID}
					nextID++
					if err := sh.Insert(p); err != nil {
						t.Fatalf("step %d insert: %v", step, err)
					}
					mirror = append(mirror, p)
				} else {
					i := rng.Intn(len(mirror))
					p := mirror[i]
					found, err := sh.Delete(p)
					if err != nil || !found {
						t.Fatalf("step %d delete %d: found=%v err=%v", step, p.ID, found, err)
					}
					mirror = append(mirror[:i], mirror[i+1:]...)
				}
				if sh.Len() != len(mirror) {
					t.Fatalf("step %d: Len=%d, want %d", step, sh.Len(), len(mirror))
				}
				if step%5 == 0 {
					check(step)
				}
			}
		})
	}
}

// TestShardedBatchMutations checks InsertBatch/DeleteBatch route per
// shard and report found flags in input order.
func TestShardedBatchMutations(t *testing.T) {
	_, sh := buildBoth(t, straddlePoints(rand.New(rand.NewSource(5)), 30), 4)

	batch := []nwcq.Point{
		{X: 10, Y: 10, ID: 501}, {X: 90, Y: 10, ID: 502},
		{X: 10, Y: 90, ID: 503}, {X: 90, Y: 90, ID: 504},
		{X: 50, Y: 50, ID: 505},
	}
	if err := sh.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sh.Len() != 35 {
		t.Fatalf("Len=%d, want 35", sh.Len())
	}
	dels := append([]nwcq.Point{{X: 1, Y: 1, ID: 999}}, batch...)
	founds, err := sh.DeleteBatch(dels)
	if err != nil {
		t.Fatal(err)
	}
	if founds[0] {
		t.Fatal("phantom point reported found")
	}
	for i := 1; i < len(founds); i++ {
		if !founds[i] {
			t.Fatalf("batch point %d not found", dels[i].ID)
		}
	}
	if sh.Len() != 30 {
		t.Fatalf("Len=%d after delete, want 30", sh.Len())
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
