package nwcq

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nwcq/internal/sub"
)

// Continuous NWC: standing-query subscriptions over the mutation
// stream. A subscriber registers one NWC query and receives a frame
// whenever a published mutation can have changed its answer:
//
//   - every frame carries the full result at one published version,
//     stamped with that version's LSN (on a follower, the leader's LSN,
//     so both replicas expose the same axis) and the host-local
//     publication generation;
//   - frames arrive in publish order with monotone stamps, at least
//     once — a consumer may see a state twice (reconnect, resync) but
//     never out of order and never a state that did not exist;
//   - affect filtering is a box check (internal/sub): a mutation whose
//     points all fall outside the current answer's distance bound plus
//     the window extent provably cannot change the answer and produces
//     no frame;
//   - a slow consumer's pending frames coalesce in a bounded queue;
//     dropped intermediate states surface as one frame with Kind
//     SubResync, whose payload is again a full (current) answer;
//   - with zero subscribers the publish path pays a single atomic load.

// Frame kinds (Kind field of SubUpdate).
const (
	// SubInit is the first frame of a subscription: the answer at the
	// version the subscription attached at.
	SubInit = "init"
	// SubUpdateKind is a regular affected-by-a-mutation frame.
	SubUpdateKind = "update"
	// SubResync flags that intermediate frames were coalesced away; the
	// payload is still a full answer.
	SubResync = "resync"
)

// SubUpdate is one delivered frame of a standing query.
type SubUpdate struct {
	// Kind is SubInit, SubUpdateKind or SubResync.
	Kind string
	// LSN is the WAL record the frame's state reflects (the leader's
	// LSN on a follower; zero on hosts without a WAL).
	LSN uint64
	// Gen is the host-local publication generation — strictly monotone
	// even without a WAL.
	Gen uint64
	// PublishedAt is when the mutation that triggered this frame
	// published (zero on init frames); publish→notify latency is the
	// delivery time minus it.
	PublishedAt time.Time
	// Result is the standing query's full answer at this version.
	Result Result
}

// Subscription is a live standing query. Next is single-consumer;
// Close may be called from anywhere and unblocks a pending Next.
type Subscription interface {
	// Next blocks until the next frame is due and returns it. It
	// returns the context's error on cancellation and sub.ErrClosed
	// (via errors.Is(err, ErrSubscriptionClosed)) after Close or when
	// cancel closes.
	Next(ctx context.Context, cancel <-chan struct{}) (SubUpdate, error)
	// Close detaches the subscription and releases everything it pins.
	Close() error
	// ID is the host-unique subscription identifier.
	ID() uint64
}

// ErrSubscriptionClosed reports Next on a closed subscription.
var ErrSubscriptionClosed = sub.ErrClosed

// Subscriber is the standing-query surface of a backend. *Index (and
// therefore *PagedIndex) implements it; so does the sharded router.
type Subscriber interface {
	Subscribe(q Query) (Subscription, error)
}

// TemporalQuerier answers queries as of a retained past version.
// *Index implements it; usefully so only with WithViewRetention, since
// by default superseded views are reclaimed as soon as readers drain.
type TemporalQuerier interface {
	NWCAsOf(ctx context.Context, q Query, lsn uint64) (Result, error)
	KNWCAsOf(ctx context.Context, q KQuery, lsn uint64) (KResult, error)
	// RetainedLSNs bounds the currently answerable window: the oldest
	// retained view's LSN and the committed (newest) LSN.
	RetainedLSNs() (oldest, newest uint64)
}

// ErrLSNNotRetained reports an as-of read whose LSN falls outside the
// retained view window (already reclaimed, or not yet published).
var ErrLSNNotRetained = errors.New("nwcq: LSN outside the retained view window")

var (
	_ Subscriber      = (*Index)(nil)
	_ TemporalQuerier = (*Index)(nil)
)

// SubscriptionStats returns the subscription counters.
func (ix *Index) SubscriptionStats() SubscriptionStats { return ix.subs.Stats() }

// SubRegistry exposes the index's subscription registry. It exists for
// the sharded router (internal/shard), which attaches lightweight
// triggers to each shard's notifier; external callers cannot name the
// returned type and should use Subscribe instead.
func (ix *Index) SubRegistry() *sub.Registry { return ix.subs }

// Subscribe registers q as a standing query. The first frame (SubInit)
// is the answer at the version current at registration; afterwards a
// frame arrives for every published mutation that passes the affect
// test, in publish order.
func (ix *Index) Subscribe(q Query) (Subscription, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s := ix.subs.Subscribe(sub.Spec{X: q.X, Y: q.Y, L: q.Length, W: q.Width})
	// Evaluate at the current view. Registration preceded the pin, so a
	// mutation racing in between lands in the queue, or — its view is
	// swapped in before its notification is published — arrives after
	// the evaluation. DiscardThrough below removes the queued ones the
	// initial answer already reflects and refuses the late ones, which
	// keeps the frame stream strictly monotone.
	v := ix.acquire()
	res, err := ix.nwcOnView(context.Background(), v, q, nil)
	lsn, gen := v.lsn, v.gen
	v.release()
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Evaluated(res.Found, res.Dist, nil)
	s.DiscardThrough(gen)
	return &indexSub{
		ix: ix, s: s, q: q,
		init: &SubUpdate{Kind: SubInit, LSN: lsn, Gen: gen, Result: res},
	}, nil
}

// indexSub is the single-index Subscription: it re-evaluates the
// standing query on exactly the view each notification pinned, so a
// frame's Result is the answer at its stamped version.
type indexSub struct {
	ix   *Index
	s    *sub.Subscription
	q    Query
	init *SubUpdate
}

func (h *indexSub) ID() uint64 { return h.s.ID() }

func (h *indexSub) Next(ctx context.Context, cancel <-chan struct{}) (SubUpdate, error) {
	if u := h.init; u != nil {
		h.init = nil
		return *u, nil
	}
	n, err := h.s.Next(ctx, cancel)
	if err != nil {
		return SubUpdate{}, err
	}
	v, ok := n.Snap.(*view)
	if !ok {
		n.Release()
		return SubUpdate{}, errors.New("nwcq: subscription notification without a view")
	}
	res, eerr := h.ix.nwcOnView(ctx, v, h.q, nil)
	n.Release()
	h.s.Evaluated(res.Found, res.Dist, eerr)
	if eerr != nil {
		return SubUpdate{}, eerr
	}
	kind := SubUpdateKind
	if n.Resync {
		kind = SubResync
	}
	return SubUpdate{Kind: kind, LSN: n.LSN, Gen: n.Gen, PublishedAt: n.At, Result: res}, nil
}

func (h *indexSub) Close() error {
	h.s.Close()
	return nil
}

// viewAt pins the newest retained view whose LSN is at or below lsn.
// Every published LSN in the retained window has its own view, and a
// skipped LSN (an aborted record) left the state at its predecessor,
// so "newest at or below" is exactly "the state as of lsn".
func (ix *Index) viewAt(lsn uint64) (*view, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	cur := ix.cur.Load()
	if lsn >= cur.lsn {
		if lsn > cur.lsn {
			return nil, fmt.Errorf("%w: %d not yet published (committed %d)", ErrLSNNotRetained, lsn, cur.lsn)
		}
		// Pinning under wmu needs no CAS loop: tombstoning also runs
		// under wmu, and the current view is never tombstoned.
		cur.refs.Add(1)
		return cur, nil
	}
	for i := len(ix.retireq) - 1; i >= 0; i-- {
		if v := ix.retireq[i]; v.lsn <= lsn {
			v.refs.Add(1)
			return v, nil
		}
	}
	oldest, _ := ix.retainedLSNsLocked()
	return nil, fmt.Errorf("%w: %d predates the retained window (oldest %d)", ErrLSNNotRetained, lsn, oldest)
}

func (ix *Index) retainedLSNsLocked() (oldest, newest uint64) {
	newest = ix.cur.Load().lsn
	oldest = newest
	if len(ix.retireq) > 0 {
		oldest = ix.retireq[0].lsn
	}
	return oldest, newest
}

// RetainedLSNs reports the as-of answerable window: the oldest retained
// view's LSN and the committed LSN.
func (ix *Index) RetainedLSNs() (oldest, newest uint64) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.retainedLSNsLocked()
}

// NWCAsOf answers q against the retained view as of lsn — a temporal
// read on the same version axis subscriptions and replication use. It
// fails with ErrLSNNotRetained when that version is outside the
// retained window (size it with WithViewRetention).
func (ix *Index) NWCAsOf(ctx context.Context, q Query, lsn uint64) (Result, error) {
	return execute(ctx, ix, &nwcKind, q, exec{asOf: true, lsn: lsn})
}

// KNWCAsOf is the kNWC form of NWCAsOf.
func (ix *Index) KNWCAsOf(ctx context.Context, q KQuery, lsn uint64) (KResult, error) {
	return execute(ctx, ix, &knwcKind, q, exec{asOf: true, lsn: lsn})
}
