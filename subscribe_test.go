package nwcq

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// Standing-query correctness suite. The delivery contract under test
// (subscribe.go): every frame is the full answer at one published
// version, stamped with that version's generation (and LSN when a WAL
// exists); frames arrive in publish order with monotone stamps; any
// version whose answer differs from its predecessor's produces a frame
// (the affect test is conservative); a slow consumer loses only
// intermediate states, flagged by one resync frame. Run with -race —
// the churn test exists for it.

// drainFrames pops every already-queued frame. All publishes in these
// tests happen-before the drain, so a Next that blocks means the queue
// is empty and the short timeout only runs once, at the end.
func drainFrames(t *testing.T, s Subscription) []SubUpdate {
	t.Helper()
	var out []SubUpdate
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		u, err := s.Next(ctx, nil)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, u)
	}
}

// assertMonotoneGens checks the ordering half of the contract: strictly
// increasing generations, frame by frame.
func assertMonotoneGens(t *testing.T, frames []SubUpdate) {
	t.Helper()
	for i := 1; i < len(frames); i++ {
		if frames[i].Gen <= frames[i-1].Gen {
			t.Fatalf("frame %d gen %d not above predecessor's %d", i, frames[i].Gen, frames[i-1].Gen)
		}
	}
}

// TestSubscriptionOverflowResync pins the backpressure contract with a
// 2-deep queue: a consumer that ignores 8 affecting mutations keeps
// only the 2 newest states, the first delivery after the overflow is
// flagged resync, and the final frame is the current answer.
func TestSubscriptionOverflowResync(t *testing.T) {
	idx, err := Build(testPoints(50, 7), func(o *buildOptions) { o.subQueue = 2 })
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 500, Y: 500, Length: 100, Width: 100, N: 3}
	s, err := idx.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const inserts = 8
	for i := 0; i < inserts; i++ {
		p := Point{X: 490 + float64(i)*2, Y: 500, ID: uint64(9000 + i)}
		if err := idx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}

	frames := drainFrames(t, s)
	assertMonotoneGens(t, frames)
	if len(frames) != 3 { // init + the 2 retained states
		t.Fatalf("got %d frames, want 3 (init plus a 2-deep queue)", len(frames))
	}
	if frames[0].Kind != SubInit {
		t.Fatalf("first frame kind %q, want init", frames[0].Kind)
	}
	if frames[1].Kind != SubResync {
		t.Fatalf("first post-overflow frame kind %q, want resync", frames[1].Kind)
	}
	last := frames[len(frames)-1]
	if got := last.Gen - frames[0].Gen; got != inserts {
		t.Fatalf("final frame is version %d after init, want %d (the newest state survives coalescing)", got, inserts)
	}
	cur, err := idx.NWC(q)
	if err != nil {
		t.Fatal(err)
	}
	if last.Result.Found != cur.Found || math.Abs(last.Result.Dist-cur.Dist) > 1e-9 {
		t.Fatalf("final frame (found=%v dist=%g) is not the current answer (found=%v dist=%g)",
			last.Result.Found, last.Result.Dist, cur.Found, cur.Dist)
	}

	st := idx.SubscriptionStats()
	if want := uint64(inserts - 2); st.Coalesced != want {
		t.Fatalf("coalesced %d notifications, want %d", st.Coalesced, want)
	}
	if st.Resyncs != 1 {
		t.Fatalf("resync deliveries %d, want 1 (one flag per overflow run)", st.Resyncs)
	}
}

// TestSubscriptionChurnUnderMutation runs subscribe/consume/unsubscribe
// churn against a continuous mutator — the -race workload for the
// registry's lifecycle edges (Subscribe vs Publish vs Close). Every
// frame any subscriber sees must still be monotone, and the registry
// must drain back to zero subscriptions.
func TestSubscriptionChurnUnderMutation(t *testing.T) {
	idx, err := Build(testPoints(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 500, Y: 500, Length: 150, Width: 150, N: 3}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			p := Point{X: 450 + float64(i%20)*5, Y: 500, ID: uint64(1 << 40)}
			if err := idx.Insert(p); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := idx.Delete(p); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()

	// churnOnce subscribes, reads up to four frames and closes — on
	// every path, so a failed check does not also leak the subscription.
	churnOnce := func() bool {
		s, err := idx.Subscribe(q)
		if err != nil {
			t.Errorf("subscribe: %v", err)
			return false
		}
		defer s.Close()
		var lastGen uint64
		for i := 0; i < 4; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			u, err := s.Next(ctx, nil)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				break
			}
			if err != nil {
				t.Errorf("next: %v", err)
				return false
			}
			if u.Gen <= lastGen {
				t.Errorf("gen %d not above %d", u.Gen, lastGen)
				return false
			}
			lastGen = u.Gen
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !churnOnce() {
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done

	if st := idx.SubscriptionStats(); st.Active != 0 {
		t.Fatalf("%d subscriptions still active after churn", st.Active)
	}
	// Close must unblock a pending Next, not leave it hanging.
	s, err := idx.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	drainFrames(t, s) // consume the init frame so Next truly blocks
	unblocked := make(chan error, 1)
	go func() {
		_, err := s.Next(context.Background(), nil)
		unblocked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-unblocked:
		if !errors.Is(err, ErrSubscriptionClosed) {
			t.Fatalf("Next after Close returned %v, want ErrSubscriptionClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left a pending Next blocked")
	}
}

// TestTemporalReadsMatchSubscriptionFrames reads as of each frame's LSN
// with retention on. That such a read repeats its frame is the model
// test's opAsOf and opDrain, each checked against the oracle at the LSN's
// version; this holds the rest: every as-of read past the slow-query
// threshold reaches the slow log, a query that fails validation never
// runs and stays out of it, and an LSN outside the retained window fails
// with ErrLSNNotRetained.
func TestTemporalReadsMatchSubscriptionFrames(t *testing.T) {
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10, viewRetention: 64}
	px := newMemPaged().build(t, testPoints(50, 23), o)
	defer px.Close()

	q := Query{X: 500, Y: 500, Length: 100, Width: 100, N: 3}
	s, err := px.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 15; i++ {
		p := Point{X: 470 + float64(i)*4, Y: 500, ID: uint64(7000 + i)}
		if err := px.Insert(p); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	frames := drainFrames(t, s)
	// From here on only the as-of reads run, each past a 1ns threshold:
	// they must reach the slow log like every other entry point.
	px.SetSlowQueryThreshold(time.Nanosecond)
	updates := 0
	for _, u := range frames[1:] {
		if _, err := px.NWCAsOf(ctx, q, u.LSN); err != nil {
			t.Fatalf("NWCAsOf(%d): %v", u.LSN, err)
		}
		if _, err := px.KNWCAsOf(ctx, KQuery{Query: q, K: 2, M: 1}, u.LSN); err != nil {
			t.Fatalf("KNWCAsOf(%d): %v", u.LSN, err)
		}
		updates++
	}
	if updates == 0 {
		t.Fatal("no update frames; the temporal reads are vacuous")
	}
	// A validation failure never executed and stays out of the log.
	if _, err := px.NWCAsOf(ctx, Query{X: 500, Y: 500, Length: 100, Width: 100}, frames[1].LSN); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("as-of read with N=0 returned %v, want ErrInvalidQuery", err)
	}
	slow := map[string]int{}
	for _, e := range px.SlowQueries() {
		slow[e.Kind]++
		if e.Source != "" || e.N != q.N || e.Duration <= 0 {
			t.Fatalf("as-of slow-log entry malformed: %+v", e)
		}
	}
	if slow["nwc"] != updates || slow["knwc"] != updates {
		t.Fatalf("slow log holds %v after %d NWCAsOf + %d KNWCAsOf past a 1ns threshold", slow, updates, updates)
	}
	px.SetSlowQueryThreshold(0)

	oldest, newest := px.RetainedLSNs()
	if oldest > newest {
		t.Fatalf("retained window [%d, %d] is inverted", oldest, newest)
	}
	if _, err := px.NWCAsOf(ctx, q, newest+5); !errors.Is(err, ErrLSNNotRetained) {
		t.Fatalf("read beyond the committed LSN returned %v, want ErrLSNNotRetained", err)
	}
	if oldest > 1 {
		if _, err := px.NWCAsOf(ctx, q, oldest-1); !errors.Is(err, ErrLSNNotRetained) {
			t.Fatalf("read below the retained window returned %v, want ErrLSNNotRetained", err)
		}
	}
}

// TestZeroSubscriberPublishBypassesRegistry pins the fast path the
// acceptance criteria demand: with no subscriptions the publish hook is
// one atomic load — it must not reach the registry, so none of the
// registry-side counters may move.
func TestZeroSubscriberPublishBypassesRegistry(t *testing.T) {
	idx, err := Build(testPoints(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func() {
		for i := 0; i < 5; i++ {
			p := Point{X: 500, Y: 500, ID: uint64(1<<40 + i)}
			if err := idx.Insert(p); err != nil {
				t.Fatal(err)
			}
			if _, err := idx.Delete(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate()
	if st := idx.SubscriptionStats(); st != (SubscriptionStats{}) {
		t.Fatalf("registry counters moved with zero subscribers: %+v", st)
	}
	// After the last subscription closes, the gate must re-engage.
	s, err := idx.Subscribe(Query{X: 500, Y: 500, Length: 100, Width: 100, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	before := idx.SubscriptionStats()
	mutate()
	after := idx.SubscriptionStats()
	if after.Published != before.Published || after.Notified != before.Notified {
		t.Fatalf("registry engaged after the last unsubscribe: %+v -> %+v", before, after)
	}
}

// BenchmarkMutatePublish measures the insert+delete pair cost against
// the number of open subscriptions. subs=0 is the no-regression pin
// against BENCH_baseline.json's BenchmarkNWCUnderMutation rows: the
// gate is one atomic load, so the pair cost must match the
// pre-subscription mutation numbers. An unaffected subscription pays the
// affect test (a box miss); an affected one additionally pins a view and
// pushes a frame per mutation onto an undrained queue (steady-state
// coalescing). The 100 and 10,000 rows are the ruler for a publish that
// walks every subscription under the writer lock (ROADMAP item 9).
func BenchmarkMutatePublish(b *testing.B) {
	regimes := []struct {
		name               string
		unaffected, affect int // subscriptions away from and at the mutation site (100, 100)
	}{
		{"subs=0", 0, 0},
		{"subs=1/unaffected", 1, 0},
		{"subs=1/affected", 0, 1},
		{"subs=100/unaffected", 100, 0},
		{"subs=10000/unaffected", 10000, 0},
		{"subs=10000/affected=1%", 9900, 100},
	}
	for _, rg := range regimes {
		b.Run(rg.name, func(b *testing.B) {
			idx, err := Build(testPoints(10000, 5))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rg.unaffected+rg.affect; i++ {
				at := 900.0
				if i < rg.affect {
					at = 100
				}
				s, err := idx.Subscribe(Query{X: at, Y: at, Length: 50, Width: 50, N: 4})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
			}
			p := Point{X: 100, Y: 100, ID: 1 << 40}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Insert(p); err != nil {
					b.Fatal(err)
				}
				if _, err := idx.Delete(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
