package qcache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nwcq/internal/trace"
)

func TestHitAfterDo(t *testing.T) {
	c := New[int, string](8)
	ctx := context.Background()
	v, err := c.Do(ctx, 1, 42, func() (string, error) { return "answer", nil })
	if err != nil || v != "answer" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	if v, ok := c.Get(1, 42); !ok || v != "answer" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestGenerationAdvanceInvalidates(t *testing.T) {
	c := New[int, string](8)
	ctx := context.Background()
	if _, err := c.Do(ctx, 1, 1, func() (string, error) { return "old", nil }); err != nil {
		t.Fatal(err)
	}
	// A reader at a newer generation must never see the old entry.
	if _, ok := c.Get(2, 1); ok {
		t.Fatal("stale hit across a generation advance")
	}
	v, err := c.Do(ctx, 2, 1, func() (string, error) { return "new", nil })
	if err != nil || v != "new" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestOldGenerationBypasses(t *testing.T) {
	c := New[int, string](8)
	ctx := context.Background()
	if _, err := c.Do(ctx, 5, 1, func() (string, error) { return "gen5", nil }); err != nil {
		t.Fatal(err)
	}
	// A delayed reader of a superseded generation computes uncached: it
	// must neither read the newer entry nor replace it.
	v, err := c.Do(ctx, 3, 1, func() (string, error) { return "gen3", nil })
	if err != nil || v != "gen3" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	if v, ok := c.Get(5, 1); !ok || v != "gen5" {
		t.Fatalf("newer entry poisoned: %q, %v", v, ok)
	}
	if _, ok := c.Get(3, 1); ok {
		t.Fatal("old-generation Get hit a newer map")
	}
}

func TestCoalescing(t *testing.T) {
	c := New[int, int](8)
	ctx := context.Background()
	const waiters = 8
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	go func() {
		_, _ = c.Do(ctx, 1, 7, func() (int, error) {
			close(started)
			<-release
			calls.Add(1)
			return 99, nil
		})
	}()
	<-started
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(ctx, 1, 7, func() (int, error) {
				calls.Add(1)
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Release the leader only after every waiter has joined the flight,
	// so all of them provably coalesced rather than hitting the landed
	// entry.
	for c.Stats().Coalesced < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 99 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if st := c.Stats(); st.Coalesced == 0 {
		t.Fatalf("no coalesced lookups recorded: %+v", st)
	}
}

func TestLeaderErrorNotCached(t *testing.T) {
	c := New[int, int](8)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := c.Do(ctx, 1, 3, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get(1, 3); ok {
		t.Fatal("failed computation was cached")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after failed flight", st.Entries)
	}
	// The next Do recomputes and caches normally.
	v, err := c.Do(ctx, 1, 3, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("Do = %d, %v", v, err)
	}
}

func TestWaiterRecomputesOnLeaderFailure(t *testing.T) {
	c := New[int, int](8)
	ctx := context.Background()
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = c.Do(ctx, 1, 1, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started
	done := make(chan struct{})
	var v int
	var err error
	go func() {
		defer close(done)
		v, err = c.Do(ctx, 1, 1, func() (int, error) { return 42, nil })
	}()
	close(release)
	<-done
	if err != nil || v != 42 {
		t.Fatalf("waiter fallback = %d, %v", v, err)
	}
}

func TestWaiterAbandonsOnContextCancel(t *testing.T) {
	c := New[int, int](8)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = c.Do(context.Background(), 1, 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, 1, 1, func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestCapacityEviction(t *testing.T) {
	c := New[int, int](2)
	ctx := context.Background()
	for k := 0; k < 5; k++ {
		if _, err := c.Do(ctx, 1, k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("entries = %d, capacity 2", st.Entries)
	}
}

func TestGetZeroAlloc(t *testing.T) {
	c := New[int, int](8)
	if _, err := c.Do(context.Background(), 1, 1, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get(1, 1); !ok {
			t.Fatal("miss on warm cache")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %.1f per hit, want 0", allocs)
	}
}

func TestConcurrentGenerationChurn(t *testing.T) {
	// Hammer Do/Get across advancing generations; run with -race. The
	// invariant checked is that a value cached at generation g is never
	// served at a later generation.
	c := New[int, uint64](16)
	ctx := context.Background()
	var gen atomic.Uint64
	gen.Store(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g := gen.Load()
				if v, ok := c.Get(g, 1); ok && v > g {
					// Values encode the generation they were computed at; a
					// cached value from a *newer* generation is fine for a
					// lagging reader (see syncGen), but the map can only be
					// at most at our generation in that case. v < g means a
					// stale entry survived an advance.
					panic("impossible: newer value at older map generation")
				} else if ok && v < g {
					panic("stale generation served")
				}
				_, _ = c.Do(ctx, g, 1, func() (uint64, error) { return g, nil })
				if i%50 == 0 {
					gen.Add(1)
				}
			}
		}()
	}
	wg.Wait()
}

// TestResolveStampsTheRecord: Resolve writes the one cache outcome a
// request's record carries — off without a cache, bypass for an execution
// that may not use it, miss then hit — and a request without a record
// (nil) runs the same sequence untouched.
func TestResolveStampsTheRecord(t *testing.T) {
	ctx := context.Background()
	c := New[int, string](8)
	fn := func() (string, error) { return "v", nil }
	for _, step := range []struct {
		c      *Cache[int, string]
		bypass bool
		want   string
	}{
		{nil, false, trace.CacheOff},
		{c, true, trace.CacheBypass},
		{c, false, trace.CacheMiss},
		{c, false, trace.CacheHit},
	} {
		tr := &trace.Record{}
		v, hit, err := Resolve(ctx, tr, step.c, step.bypass, 1, 7, fn)
		if err != nil || v != "v" || tr.Cache != step.want || hit != (step.want == trace.CacheHit) {
			t.Errorf("want %s: got %q, hit=%v, err=%v, stamped %q", step.want, v, hit, err, tr.Cache)
		}
	}
	if v, hit, err := Resolve(ctx, nil, c, false, 1, 7, fn); err != nil || !hit || v != "v" {
		t.Errorf("without a record: %q, hit=%v, err=%v", v, hit, err)
	}
}
