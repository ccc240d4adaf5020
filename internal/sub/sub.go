// Package sub is the standing-query subsystem underneath continuous NWC
// queries: a subscription registry plus the incremental notifier the
// index's view-publish path drives.
//
// The host (package nwcq, or the sharded router) owns query evaluation
// and snapshot pinning; this package owns everything version- and
// delivery-shaped:
//
//   - the affect test: a per-subscription box check deciding whether a
//     published mutation can possibly change the subscription's answer
//     (see Subscription.affectedLocked for the invariant argument);
//   - per-subscriber bounded FIFO queues of pinned snapshots, pushed in
//     publish order under the host's writer lock, so delivered frames
//     carry monotone LSNs/generations;
//   - coalescing under backpressure: a full queue drops its oldest
//     entry (releasing its snapshot pin) and flags the next delivery as
//     a resync, telling the consumer intermediate states were skipped;
//   - the zero-subscriber fast path: Registry.Active is a single atomic
//     load, the only cost a publish pays when nobody is subscribed.
//
// Delivery is at-least-once: a consumer that reconnects replays from
// its last seen position via a fresh initial evaluation, and every
// frame is a full answer (the standing query's result at the frame's
// version), so redelivery and resync are always safe.
package sub

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nwcq/internal/geom"
)

// Op classifies a published mutation for the affect test.
type Op uint8

const (
	// OpInsert adds points; it can only improve (or leave) an answer.
	OpInsert Op = iota
	// OpDelete removes points; it can degrade an answer.
	OpDelete
	// OpReset discards the whole dataset (snapshot re-bootstrap); every
	// subscription is affected.
	OpReset
)

// Spec is the geometry of a standing query the affect test needs: the
// query point and the window extents. Scheme and measure stay with the
// host, which owns evaluation.
type Spec struct {
	X, Y float64
	L, W float64
}

// Notification is one pending version a subscription must re-evaluate:
// the snapshot handle the host pinned at publish time, the version
// stamps, and the publish wall-clock instant (for publish→notify
// latency accounting).
type Notification struct {
	// LSN is the version stamp delivered to clients. On a follower it is
	// the leader's LSN, so both replicas expose the same axis; zero on
	// hosts without a WAL.
	LSN uint64
	// Gen is the host-local publication generation — always monotone,
	// the ordering axis the queue itself uses.
	Gen uint64
	// Snap is the pinned snapshot, opaque to this package; the host
	// evaluates against it and then calls Release exactly once.
	Snap any
	// Resync reports that older notifications were coalesced away
	// before this one: the consumer may have missed intermediate states.
	Resync bool
	// At is when the mutation published.
	At time.Time

	release func()
}

// Release unpins the notification's snapshot. Safe on the zero value.
func (n *Notification) Release() {
	if n.release != nil {
		n.release()
		n.release = nil
	}
}

// ErrClosed reports Next on a subscription whose Close ran.
var ErrClosed = errors.New("sub: subscription closed")

// DefaultQueueCap bounds a subscriber's pending queue (and therefore
// how many superseded snapshots one slow subscriber can pin).
const DefaultQueueCap = 64

// Stats is a point-in-time snapshot of the registry's counters.
type Stats struct {
	// Active is the number of open subscriptions.
	Active int64 `json:"active"`
	// Published counts publishes that reached the registry while at
	// least one subscription was open.
	Published uint64 `json:"published"`
	// Notified counts notifications enqueued (publish × affected subs).
	Notified uint64 `json:"notified"`
	// Coalesced counts notifications dropped by queue overflow.
	Coalesced uint64 `json:"coalesced"`
	// Resyncs counts deliveries flagged resync after an overflow.
	Resyncs uint64 `json:"resyncs"`
	// Delivered counts successful evaluations reported back.
	Delivered uint64 `json:"delivered"`
	// EvalErrors counts failed evaluations reported back.
	EvalErrors uint64 `json:"eval_errors"`
}

// Registry is the set of open subscriptions on one host, and the
// notifier its publish path drives. All methods are safe for concurrent
// use; Publish additionally relies on the host calling it in publish
// order (under the host's writer lock).
type Registry struct {
	// active is the subscriber count — the publish path's entire cost
	// when it is zero.
	active atomic.Int64

	queueCap int

	mu   sync.Mutex
	subs map[uint64]*Subscription
	seq  uint64

	published  atomic.Uint64
	notified   atomic.Uint64
	coalesced  atomic.Uint64
	resyncs    atomic.Uint64
	delivered  atomic.Uint64
	evalErrors atomic.Uint64
}

// NewRegistry returns an empty registry whose subscriptions buffer up
// to queueCap pending notifications (DefaultQueueCap when not
// positive).
func NewRegistry(queueCap int) *Registry {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	return &Registry{queueCap: queueCap, subs: make(map[uint64]*Subscription)}
}

// Active returns the number of open subscriptions with one atomic load.
// The host's publish path gates on this before paying anything else.
func (r *Registry) Active() int64 { return r.active.Load() }

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Active:     r.active.Load(),
		Published:  r.published.Load(),
		Notified:   r.notified.Load(),
		Coalesced:  r.coalesced.Load(),
		Resyncs:    r.resyncs.Load(),
		Delivered:  r.delivered.Load(),
		EvalErrors: r.evalErrors.Load(),
	}
}

// Publish runs the affect test for every open subscription against one
// published mutation and enqueues a pinned notification on each
// affected one. pin must pin the just-published snapshot once per call
// and return the handle plus its release; it is invoked only for
// affected subscriptions. The host calls Publish under its writer lock,
// in publish order — that lock is what makes queue order LSN order.
func (r *Registry) Publish(lsn, gen uint64, op Op, changed []geom.Point, pin func() (any, func())) {
	if r.active.Load() == 0 {
		return
	}
	now := time.Now()
	r.published.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.subs {
		s.mu.Lock()
		// gen ≤ floor: the initial evaluation already reflects this
		// publish (see DiscardThrough), so it is never pinned or queued.
		if s.closed || gen <= s.floor || !s.affectedLocked(op, changed) {
			s.mu.Unlock()
			continue
		}
		snap, release := pin()
		s.pushLocked(Notification{LSN: lsn, Gen: gen, Snap: snap, At: now, release: release}, op)
		s.mu.Unlock()
	}
}

// Subscribe registers a standing query. The new subscription starts
// maximally conservative (every mutation affects it) until the host
// reports its first evaluation via Evaluated.
func (r *Registry) Subscribe(spec Spec) *Subscription {
	s := &Subscription{
		r:      r,
		spec:   spec,
		signal: make(chan struct{}, 1),
		done:   make(chan struct{}),
		// No evaluation yet: treat the answer as unknown and degradable
		// so nothing is missed before the initial evaluation lands.
		stale:        true,
		staleDegrade: true,
	}
	// Raise active before the map insert: a racing publish then takes
	// the slow path and simply finds the map without us yet — the
	// initial evaluation covers that publish.
	r.active.Add(1)
	r.mu.Lock()
	r.seq++
	s.id = r.seq
	r.subs[s.id] = s
	r.mu.Unlock()
	return s
}

// Subscription is one registered standing query: its affect-test state
// and its bounded queue of pending notifications. One consumer at a
// time may call Next/Evaluated; Close is safe from anywhere.
type Subscription struct {
	id   uint64
	r    *Registry
	spec Spec

	// signal is a one-slot edge trigger: pushLocked tops it up, Next
	// drains it. done closes on Close.
	signal chan struct{}
	done   chan struct{}

	mu     sync.Mutex
	queue  []Notification
	closed bool
	// dropped remembers an overflow since the last delivery; the next
	// popped notification carries it out as Resync.
	dropped bool
	// floor is the generation of the host's initial evaluation; Publish
	// drops notifications at or below it.
	floor uint64

	// Affect-test state. found/bound are the last reported evaluation:
	// when the answer exists at distance bound, only changes inside the
	// box |x−qx| ≤ bound+L, |y−qy| ≤ bound+W can alter it (any window
	// at distance ≤ bound lies wholly inside that box for every
	// measure, since each qualifying window contains a point within
	// bound of q and extends at most L×W beyond it).
	//
	// stale means mutations published after the evaluation that set
	// bound are not yet reflected in it. Inserts only shrink the true
	// bound, so the recorded (larger) box stays conservative; a
	// pending delete or reset can grow it, which staleDegrade records —
	// while set, every mutation is treated as affecting.
	found        bool
	bound        float64
	stale        bool
	staleDegrade bool
}

// ID returns the registry-unique subscription ID.
func (s *Subscription) ID() uint64 { return s.id }

func (s *Subscription) affectedLocked(op Op, changed []geom.Point) bool {
	if op == OpReset || s.staleDegrade {
		return true
	}
	if !s.found {
		// No current answer: an insert can create one anywhere; a delete
		// cannot — unless un-reflected inserts are pending, which the
		// delete might neutralise.
		return op == OpInsert || s.stale
	}
	hx := s.bound + s.spec.L
	hy := s.bound + s.spec.W
	for i := range changed {
		if math.Abs(changed[i].X-s.spec.X) <= hx && math.Abs(changed[i].Y-s.spec.Y) <= hy {
			return true
		}
	}
	return false
}

// pushLocked appends a notification, coalescing the oldest entry away
// when the queue is full. Caller holds s.mu.
func (s *Subscription) pushLocked(n Notification, op Op) {
	s.stale = true
	if op != OpInsert {
		s.staleDegrade = true
	}
	if len(s.queue) >= s.r.queueCap {
		old := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		old.Release()
		s.dropped = true
		s.r.coalesced.Add(1)
	}
	s.queue = append(s.queue, n)
	s.r.notified.Add(1)
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// Next blocks until a notification is pending and pops it, in publish
// order. It returns ErrClosed after Close, the context's error on
// cancellation, and ErrClosed when cancel closes (the host's shutdown
// drain). The caller must evaluate against the notification's snapshot,
// call Release, and report the outcome via Evaluated.
func (s *Subscription) Next(ctx context.Context, cancel <-chan struct{}) (Notification, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return Notification{}, ErrClosed
		}
		if len(s.queue) > 0 {
			n := s.queue[0]
			copy(s.queue, s.queue[1:])
			s.queue[len(s.queue)-1] = Notification{}
			s.queue = s.queue[:len(s.queue)-1]
			if s.dropped {
				n.Resync = true
				s.dropped = false
				s.r.resyncs.Add(1)
			}
			s.mu.Unlock()
			return n, nil
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Notification{}, ctx.Err()
		case <-s.done:
			return Notification{}, ErrClosed
		case <-cancel:
			return Notification{}, ErrClosed
		case <-s.signal:
		}
	}
}

// Evaluated reports the outcome of one evaluation (the initial one or a
// popped notification's): the answer's existence and distance, or the
// error. A successful evaluation refreshes the affect box; the stale
// flags clear only when no further notifications are pending, since
// only then is the box known to describe the newest published state.
func (s *Subscription) Evaluated(found bool, dist float64, err error) {
	s.mu.Lock()
	if err != nil {
		s.stale = true
		s.staleDegrade = true
		s.mu.Unlock()
		s.r.evalErrors.Add(1)
		return
	}
	s.found = found
	s.bound = dist
	if len(s.queue) == 0 {
		s.stale = false
		s.staleDegrade = false
	}
	s.mu.Unlock()
	s.r.delivered.Add(1)
}

// DiscardThrough drops (and releases) pending notifications at or below
// gen and keeps later ones at or below gen from being queued. The host
// calls it with the generation of the view its initial evaluation ran
// on, so the stream never repeats or runs backwards past the init
// frame. The floor has to persist: the host swaps a view in before it
// calls Publish, so the initial evaluation can pin generation gen and
// discard an empty queue while the Publish for gen is still on its way.
func (s *Subscription) DiscardThrough(gen uint64) {
	s.mu.Lock()
	s.floor = gen
	kept := s.queue[:0]
	for i := range s.queue {
		if s.queue[i].Gen <= gen {
			s.queue[i].Release()
		} else {
			kept = append(kept, s.queue[i])
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = Notification{}
	}
	s.queue = kept
	s.mu.Unlock()
}

// Close unregisters the subscription, releases every pending snapshot
// pin and wakes any blocked Next. Idempotent.
func (s *Subscription) Close() {
	s.r.mu.Lock()
	_, registered := s.r.subs[s.id]
	delete(s.r.subs, s.id)
	s.r.mu.Unlock()
	// Exactly one caller finds the map entry; it owns the decrement.
	if registered {
		s.r.active.Add(-1)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for i := range s.queue {
		s.queue[i].Release()
	}
	s.queue = nil
	s.mu.Unlock()
	close(s.done)
}
