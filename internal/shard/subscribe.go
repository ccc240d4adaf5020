package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"nwcq"
	"nwcq/internal/sub"
)

// Router subscriptions: the sharded twin of nwcq.Index.Subscribe.
//
// A router subscription attaches one lightweight trigger to every
// shard's notifier (sub.Registry). The triggers are deliberately left
// maximally conservative — the router never reports an evaluation back
// to them, so every published mutation on any shard fires — because the
// per-shard affect box would be unsound here: a qualifying window can
// straddle shard boundaries, and the happens-before the single-index
// protocol gets from evaluating on the exact pinned view does not exist
// once evaluation scatters across independently-published shards. The
// triggers therefore degrade to a wakeup edge, and each delivered frame
// is a fresh full routed evaluation at the current dataset state.
//
// Versioning: frames are stamped with the router generation (the sum of
// the shards' view generations — strictly monotone across any published
// mutation), carried in both the Gen and LSN fields since the router
// has no single WAL axis. Duplicate wakeups for an already-delivered
// generation are suppressed; a generation that advances during an
// evaluation re-arms the wakeup so the final state is never missed.
var _ nwcq.Subscriber = (*Sharded)(nil)

// Subscribe registers q as a standing query over the whole sharded
// dataset. The first frame (SubInit) is the routed answer at
// registration; afterwards a frame follows every published mutation on
// any shard (at-least-once, monotone generation stamps).
func (s *Sharded) Subscribe(q nwcq.Query) (nwcq.Subscription, error) {
	r := &routerSub{
		s:     s,
		q:     q,
		dirty: make(chan struct{}, 1),
		done:  make(chan struct{}),
		id:    s.subSeq.Add(1),
	}
	spec := sub.Spec{X: q.X, Y: q.Y, L: q.Length, W: q.Width}
	r.trigs = make([]*sub.Subscription, len(s.shards))
	for i, ix := range s.shards {
		r.trigs[i] = ix.SubRegistry().Subscribe(spec)
	}
	s.subActive.Add(1)
	for _, t := range r.trigs {
		go r.pump(t)
	}
	// Evaluate the initial answer at current state. The triggers are
	// already live, so a mutation racing with this evaluation sets the
	// dirty edge and the next frame re-evaluates — the stream may repeat
	// a state but can never end on a missed one. (NWCCtx also performs
	// the query validation.)
	gen := s.generation()
	res, err := s.NWCCtx(context.Background(), q)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.lastGen = gen
	r.init = &nwcq.SubUpdate{Kind: nwcq.SubInit, LSN: gen, Gen: gen, Result: res}
	return r, nil
}

// routerSub is the sharded Subscription: per-shard triggers collapse
// into a one-slot dirty edge; Next turns edges into full routed
// re-evaluations.
type routerSub struct {
	s  *Sharded
	q  nwcq.Query
	id uint64

	trigs []*sub.Subscription
	// dirty is the one-slot wakeup edge the pumps top up.
	dirty chan struct{}
	done  chan struct{}
	once  sync.Once

	// resync latches a coalescing overflow on any trigger; the next
	// frame carries it out as Kind SubResync.
	resync atomic.Bool
	// pubNS holds the earliest not-yet-delivered publish instant and
	// lastNS the latest one pumped (UnixNano), for publish→notify latency
	// accounting. A frame can reflect a publish no pump has seen yet — the
	// shard swaps its view in before it stamps the notification — and its
	// edge can be one an earlier frame re-armed: with nothing undelivered
	// it carries the latest instant pumped, a publish at or before its
	// state.
	pubNS, lastNS atomic.Int64

	// Consumer-side state (Next is single-consumer; no lock needed).
	init    *nwcq.SubUpdate
	lastGen uint64
}

// pump drains one shard trigger: release the pinned shard view
// immediately (the router re-reads current state at evaluation time)
// and raise the dirty edge.
func (r *routerSub) pump(t *sub.Subscription) {
	for {
		n, err := t.Next(context.Background(), r.done)
		if err != nil {
			return // ErrClosed: the trigger or the router sub shut down
		}
		n.Release()
		if n.Resync {
			r.resync.Store(true)
		}
		r.lastNS.Store(n.At.UnixNano())
		r.pubNS.CompareAndSwap(0, n.At.UnixNano())
		select {
		case r.dirty <- struct{}{}:
		default:
		}
	}
}

// ID returns the router-unique subscription identifier.
func (r *routerSub) ID() uint64 { return r.id }

// Next blocks until the standing query's answer may have changed and
// returns a frame with the routed answer at the current generation.
func (r *routerSub) Next(ctx context.Context, cancel <-chan struct{}) (nwcq.SubUpdate, error) {
	if u := r.init; u != nil {
		r.init = nil
		return *u, nil
	}
	for {
		select {
		case <-ctx.Done():
			return nwcq.SubUpdate{}, ctx.Err()
		case <-r.done:
			return nwcq.SubUpdate{}, nwcq.ErrSubscriptionClosed
		case <-cancel:
			return nwcq.SubUpdate{}, nwcq.ErrSubscriptionClosed
		case <-r.dirty:
		}
		gen := r.s.generation()
		resync := r.resync.Swap(false)
		res, err := r.s.NWCCtx(ctx, r.q)
		if err != nil {
			// Put the edge (and the resync latch) back so a retrying
			// consumer still converges on the current state.
			if resync {
				r.resync.Store(true)
			}
			select {
			case r.dirty <- struct{}{}:
			default:
			}
			r.s.subEvalErrors.Add(1)
			return nwcq.SubUpdate{}, err
		}
		if after := r.s.generation(); after != gen {
			// The dataset moved mid-evaluation: re-arm so another frame
			// follows at the newer generation.
			select {
			case r.dirty <- struct{}{}:
			default:
			}
		}
		if gen == r.lastGen && !resync {
			continue // duplicate wakeup for an already-delivered state
		}
		r.lastGen = gen
		r.s.subDelivered.Add(1)
		u := nwcq.SubUpdate{Kind: nwcq.SubUpdateKind, LSN: gen, Gen: gen, Result: res}
		if resync {
			u.Kind = nwcq.SubResync
			r.s.subResyncs.Add(1)
		}
		ns := r.pubNS.Swap(0)
		if ns == 0 {
			ns = r.lastNS.Load()
		}
		if ns != 0 {
			u.PublishedAt = time.Unix(0, ns)
		}
		return u, nil
	}
}

// Close detaches the router subscription, closing every shard trigger
// (which releases any still-queued view pins) and unblocking a pending
// Next. Idempotent.
func (r *routerSub) Close() error {
	r.once.Do(func() {
		close(r.done)
		for _, t := range r.trigs {
			t.Close()
		}
		r.s.subActive.Add(-1)
	})
	return nil
}

// SubscriptionStats aggregates the standing-query counters: Active,
// Delivered, EvalErrors and Resyncs are router-level (one per router
// subscription / frame); Published, Notified and Coalesced are summed
// over the shards' notifiers (trigger traffic).
func (s *Sharded) SubscriptionStats() nwcq.SubscriptionStats {
	var out nwcq.SubscriptionStats
	for _, ix := range s.shards {
		st := ix.SubscriptionStats()
		out.Published += st.Published
		out.Notified += st.Notified
		out.Coalesced += st.Coalesced
	}
	out.Active = s.subActive.Load()
	out.Delivered = s.subDelivered.Load()
	out.EvalErrors = s.subEvalErrors.Load()
	out.Resyncs = s.subResyncs.Load()
	return out
}
