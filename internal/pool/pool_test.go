package pool

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce: at one worker and at four, every index of
// the range is run exactly once and nothing outside it is.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 4} {
		runs := make([]atomic.Int32, n)
		if err := Each(n, workers, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("%d workers: index %d ran %d times", workers, i, got)
			}
		}
	}
}

var errFirst, errLater = errors.New("first"), errors.New("later")

// TestEachStopsAtTheFirstError: once a call has failed, no index is claimed
// and Each returns that error, not one that in-flight calls return after
// it. One worker stops where the loop is. Of four, three are held inside
// indices 0–2 while index 3 fails; they are let go only once its worker
// has exited — it records the error before it does. Then index 0 fails
// too, and the workers of 1 and 2 go back to claim, and must get nothing.
func TestEachStopsAtTheFirstError(t *testing.T) {
	var ran []int
	err := Each(10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return errFirst
		}
		return nil
	})
	if err != errFirst || !slices.Equal(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("one worker: ran %v, returned %v; want 0..3 and %v", ran, err, errFirst)
	}

	var runs [100]atomic.Int32
	held, release := make(chan struct{}, 3), make(chan struct{})
	failing := make(chan string, 1) // the failing worker's goroutine
	done := make(chan error)
	go func() {
		done <- Each(len(runs), 4, func(i int) error {
			runs[i].Add(1)
			if i < 3 {
				held <- struct{}{}
				<-release
				if i == 0 {
					return errLater
				}
				return nil
			}
			select { // only index 3 may get here: the others are held
			case failing <- goroutine():
			default:
			}
			return errFirst
		})
	}()
	for range 3 {
		<-held
	}
	for g, deadline := <-failing, time.Now().Add(10*time.Second); alive(g); {
		if time.Now().After(deadline) {
			t.Fatalf("the failing worker, %s, never exited", g)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != errFirst {
		t.Fatalf("four workers returned %v, want the first error %v", err, errFirst)
	}
	for i := range runs {
		want := int32(0)
		if i < 4 {
			want = 1
		}
		if got := runs[i].Load(); got != want {
			t.Fatalf("four workers: index %d ran %d times, want %d: the failure at 3 must stop the claims", i, got, want)
		}
	}
}

// goroutine returns the header of the calling goroutine's stack trace,
// "goroutine N [", which no other goroutine of the process ever has.
func goroutine() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(buf[:bytes.IndexByte(buf, '[')+1])
}

// alive reports whether the goroutine with header g is still running.
func alive(g string) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(g))
}

// TestMapKeepsInputOrder: the i-th result answers the i-th query however
// the workers interleave, and a failure names the member that failed.
func TestMapKeepsInputOrder(t *testing.T) {
	in := make([]int, 200)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 4} {
		out, err := Map(context.Background(), in, workers, func(_ context.Context, q int) (int, error) {
			if q%7 == 0 {
				runtime.Gosched()
			}
			return 3 * q, nil
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for i, r := range out {
			if r != 3*i {
				t.Fatalf("%d workers: result %d is %d, want %d", workers, i, r, 3*i)
			}
		}

		out, err = Map(context.Background(), in, workers, func(_ context.Context, q int) (int, error) {
			if q == 57 {
				return 0, errFirst
			}
			return q, nil
		})
		if out != nil || !errors.Is(err, errFirst) || err.Error() != "query 57: first" {
			t.Fatalf("%d workers: got %v, %v; want no results and \"query 57: first\"", workers, out, err)
		}
	}
}
