package nwcq

import (
	"sync"
	"testing"
)

// The view layer under mutation where the model test (model_test.go)
// does not reach: inserts far out of the space, each rebuilding the
// density grid under concurrent readers, and the allocations of a pin.
// Reads racing a writer are the model's opReaders.

// TestGridRebuildPublishRace is the regression guard for the pre-view
// grid swap: an out-of-space Insert used to overwrite the index's grid
// and engine fields in place, racing with concurrent DEP grid probes
// (and failing under -race). Views publish the (tree, grid, engine)
// triple with one atomic pointer swap, so this workload must run clean.
func TestGridRebuildPublishRace(t *testing.T) {
	pts := testPoints(600, 31)
	idx, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	schemes := []Scheme{SchemeNWCStar, SchemeIWP}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{
					X: float64(100 + (g*271+i*97)%800), Y: float64(100 + (g*131+i*53)%800),
					Length: 80, Width: 80, N: 4,
					Scheme: schemes[i%len(schemes)],
				}
				if _, err := idx.NWC(q); err != nil {
					t.Errorf("query worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	// Every insert lands outside the previous space (beyond its 12.5%
	// slack), forcing a grid rebuild per iteration.
	for i := 0; i < 25; i++ {
		far := Point{X: 2000 + float64(i)*800, Y: 2000 + float64(i)*800, ID: uint64(1_000_000 + i)}
		if err := idx.Insert(far); err != nil {
			t.Fatal(err)
		}
		found, err := idx.Delete(far)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("iteration %d: far point not found for delete", i)
		}
	}
	close(stop)
	wg.Wait()
	if idx.Len() != 600 {
		t.Fatalf("Len = %d after paired insert/delete, want 600", idx.Len())
	}
}

// TestViewPinZeroAlloc pins the read path's fixed cost: acquiring a view
// — which carries the one engine every scheme runs on — and releasing it
// must not allocate at all. This is the deterministic form of the
// BenchmarkNWCUnderMutation guarantee ("0 extra allocs/op on the read
// path"), and it holds on a freshly published view as on the first one:
// no view has IWP state left to build.
func TestViewPinZeroAlloc(t *testing.T) {
	idx, err := Build(testPoints(200, 33))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(Point{X: 1, Y: 1, ID: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v := idx.acquire()
		if v.eng.IWPIndex() != v.iwp || v.iwp == nil {
			t.Error("published view has no IWP index")
		}
		v.release()
	})
	if allocs != 0 {
		t.Errorf("view pin allocates %g per query; want 0", allocs)
	}
}
