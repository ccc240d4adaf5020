package sub

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwcq/internal/geom"
)

// pinCounter hands out pins and counts outstanding ones, so tests can
// assert every pinned snapshot is released exactly once.
type pinCounter struct{ out atomic.Int64 }

func (p *pinCounter) pin() (any, func()) {
	p.out.Add(1)
	var once sync.Once
	return nil, func() { once.Do(func() { p.out.Add(-1) }) }
}

func publish(r *Registry, p *pinCounter, gen uint64, op Op, pts ...geom.Point) {
	r.Publish(gen, gen, op, pts, p.pin)
}

// TestAffectBox pins the filter's geometry and state machine: after an
// evaluation reporting a found answer at distance d, only changes
// inside the |dx| ≤ d+L, |dy| ≤ d+W box (or degrading operations while
// stale) may enqueue.
func TestAffectBox(t *testing.T) {
	r := NewRegistry(0)
	p := &pinCounter{}
	s := r.Subscribe(Spec{X: 100, Y: 100, L: 10, W: 20})
	defer s.Close()
	s.Evaluated(true, 5, nil) // box: |dx| ≤ 15, |dy| ≤ 25

	cases := []struct {
		name string
		op   Op
		pt   geom.Point
		want bool
	}{
		{"inside", OpInsert, geom.Point{X: 110, Y: 110}, true},
		{"x-edge", OpInsert, geom.Point{X: 115, Y: 100}, true},
		{"x-outside", OpInsert, geom.Point{X: 116, Y: 100}, false},
		{"y-edge", OpDelete, geom.Point{X: 100, Y: 125}, true},
		{"y-outside", OpDelete, geom.Point{X: 100, Y: 126}, false},
		{"far-reset", OpReset, geom.Point{X: 900, Y: 900}, true},
	}
	gen := uint64(0)
	for _, c := range cases {
		gen++
		before := r.Stats().Notified
		publish(r, p, gen, c.op, c.pt)
		got := r.Stats().Notified > before
		if got != c.want {
			t.Fatalf("%s: affected=%v, want %v", c.name, got, c.want)
		}
		if got {
			// Re-arm a clean evaluated state: pop and re-evaluate.
			n, err := s.Next(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			n.Release()
			s.Evaluated(true, 5, nil)
		}
	}

	// With no found answer, inserts anywhere can create one; deletes
	// cannot (nothing to degrade) unless un-evaluated pushes are pending.
	s.Evaluated(false, 0, nil)
	before := r.Stats().Notified
	publish(r, p, gen+1, OpDelete, geom.Point{X: 100, Y: 100})
	if r.Stats().Notified != before {
		t.Fatal("delete affected a not-found, non-stale subscription")
	}
	publish(r, p, gen+2, OpInsert, geom.Point{X: 900, Y: 900})
	if r.Stats().Notified != before+1 {
		t.Fatal("insert did not affect a not-found subscription")
	}
	// Now stale (un-popped insert pending): a delete might neutralise it.
	publish(r, p, gen+3, OpDelete, geom.Point{X: 900, Y: 900})
	if r.Stats().Notified != before+2 {
		t.Fatal("delete did not affect a stale not-found subscription")
	}
}

// TestOverflowReleasesPinsAndFlagsResync: a full queue drops its oldest
// entry, releases that entry's pin immediately, and the next delivery
// carries the resync flag exactly once.
func TestOverflowReleasesPinsAndFlagsResync(t *testing.T) {
	r := NewRegistry(2)
	p := &pinCounter{}
	s := r.Subscribe(Spec{X: 0, Y: 0, L: 10, W: 10})
	defer s.Close()
	s.Evaluated(true, 5, nil)

	for gen := uint64(1); gen <= 5; gen++ {
		publish(r, p, gen, OpInsert, geom.Point{X: 1, Y: 1})
	}
	if got := p.out.Load(); got != 2 {
		t.Fatalf("%d pins outstanding with a 2-deep queue, want 2", got)
	}
	if st := r.Stats(); st.Coalesced != 3 {
		t.Fatalf("coalesced %d, want 3", st.Coalesced)
	}
	n1, err := s.Next(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Resync || n1.Gen != 4 {
		t.Fatalf("first pop gen %d resync=%v, want gen 4 flagged resync", n1.Gen, n1.Resync)
	}
	n1.Release()
	n1.Release() // idempotent
	n2, err := s.Next(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Resync || n2.Gen != 5 {
		t.Fatalf("second pop gen %d resync=%v, want gen 5 unflagged", n2.Gen, n2.Resync)
	}
	n2.Release()
	if got := p.out.Load(); got != 0 {
		t.Fatalf("%d pins outstanding after draining, want 0", got)
	}
}

// TestCloseReleasesPendingPins: Close drains the queue, releasing every
// pinned snapshot, and a concurrent Next unblocks with ErrClosed.
func TestCloseReleasesPendingPins(t *testing.T) {
	r := NewRegistry(8)
	p := &pinCounter{}
	s := r.Subscribe(Spec{X: 0, Y: 0, L: 10, W: 10})
	for gen := uint64(1); gen <= 4; gen++ {
		publish(r, p, gen, OpInsert, geom.Point{X: 1, Y: 1})
	}
	s.Close()
	s.Close() // idempotent
	if got := p.out.Load(); got != 0 {
		t.Fatalf("%d pins outstanding after Close, want 0", got)
	}
	if r.Active() != 0 {
		t.Fatalf("active %d after Close", r.Active())
	}
	if _, err := s.Next(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next on closed subscription: %v", err)
	}
}

// TestDiscardThrough drops exactly the prefix at or below the given
// generation, releasing its pins, and refuses a publish at or below it
// that arrives afterwards (the host swaps a view in before publishing
// it, so the initial evaluation can overtake the notification).
func TestDiscardThrough(t *testing.T) {
	r := NewRegistry(8)
	p := &pinCounter{}
	s := r.Subscribe(Spec{X: 0, Y: 0, L: 10, W: 10})
	defer s.Close()
	for gen := uint64(1); gen <= 4; gen++ {
		publish(r, p, gen, OpInsert, geom.Point{X: 1, Y: 1})
	}
	s.DiscardThrough(2)
	if got := p.out.Load(); got != 2 {
		t.Fatalf("%d pins outstanding after DiscardThrough(2), want 2", got)
	}
	before := r.Stats().Notified
	publish(r, p, 2, OpReset)
	if got := r.Stats().Notified; got != before || p.out.Load() != 2 {
		t.Fatalf("late publish at the floor was queued (notified %d→%d, %d pins)", before, got, p.out.Load())
	}
	n, err := s.Next(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Release()
	if n.Gen != 3 {
		t.Fatalf("first pop gen %d after DiscardThrough(2), want 3", n.Gen)
	}
}

// TestNextCancellation: the three unblock paths — context, cancel
// channel, Close — each end a blocked Next with the right error.
func TestNextCancellation(t *testing.T) {
	r := NewRegistry(0)
	s := r.Subscribe(Spec{})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Next(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context path: %v", err)
	}
	hostClosing := make(chan struct{})
	close(hostClosing)
	if _, err := s.Next(context.Background(), hostClosing); !errors.Is(err, ErrClosed) {
		t.Fatalf("cancel-channel path: %v", err)
	}
}

// TestRegistryChurnRace hammers Subscribe/Publish/Close concurrently —
// the -race workload for the registry's own locking. Every pin must be
// released by the time everything closes.
func TestRegistryChurnRace(t *testing.T) {
	r := NewRegistry(4)
	p := &pinCounter{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for gen := uint64(1); gen <= 500; gen++ {
			publish(r, p, gen, OpInsert, geom.Point{X: 1, Y: 1})
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := r.Subscribe(Spec{X: 0, Y: 0, L: 10, W: 10})
				s.Evaluated(true, 5, nil)
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				for {
					n, err := s.Next(ctx, nil)
					if err != nil {
						break
					}
					n.Release()
					s.Evaluated(true, 5, nil)
				}
				cancel()
				s.Close()
			}
		}()
	}
	wg.Wait()
	if r.Active() != 0 {
		t.Fatalf("active %d after churn", r.Active())
	}
	if got := p.out.Load(); got != 0 {
		t.Fatalf("%d pins leaked", got)
	}
}
