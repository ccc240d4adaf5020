// Package pool provides the bounded worker pool every fan-out path
// shares: batch execution on all backends (Map), the sharded router's
// scatter scheduler, and its border/certify fetch passes (Each). One
// implementation keeps the claim/fail semantics identical everywhere.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nwcq/internal/trace"
)

// Workers resolves a chain of parallelism knobs, most specific first
// (a per-call option, then the backend's configured width): the first
// positive one wins, GOMAXPROCS when none is.
func Workers(knobs ...int) int {
	for _, n := range knobs {
		if n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(0..n-1) over a bounded worker pool, returning the first
// error (remaining work is skipped, in-flight calls finish). With one
// worker (or one item) it degenerates to a plain loop on the calling
// goroutine — no goroutines, no locks, no allocations.
func Each(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Map answers every query of a batch with fn over a bounded worker
// pool. The i-th result corresponds to in[i]; the first error aborts
// the batch and names the member that failed.
func Map[Q, R any](ctx context.Context, in []Q, workers int, fn func(context.Context, Q) (R, error)) ([]R, error) {
	// A query record is owned by one request; concurrent batch members
	// must not race on it, so the fan-out runs detached.
	ctx = trace.Detach(ctx)
	out := make([]R, len(in))
	err := Each(len(in), workers, func(i int) error {
		r, err := fn(ctx, in[i])
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
