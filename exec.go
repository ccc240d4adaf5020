package nwcq

import (
	"context"
	"time"

	"nwcq/internal/obs"
	"nwcq/internal/qcache"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// The index's one query path. Every public NWC/kNWC name (NWCCtx,
// ExplainNWC, NWCAsOf and the kNWC forms; batches and the plain NWC/KNWC
// shorthands through those) is a one-line call into execute, which runs
// validate → result cache → pin a view → nwcOnView/knwcOnView → record.
// Subscriptions alone call the evaluators directly: they own their view
// pins and are not recorded as queries.

// exec is the execution descriptor of one query: how it runs, as
// opposed to what it asks. Cancellation, the router's shared scatter
// bound and the request's record (internal/trace: an explained query's
// armed recorder, a sampled wide event's) ride the context beside it.
type exec struct {
	// asOf evaluates on the retained view as of lsn instead of the
	// current one.
	asOf bool
	lsn  uint64
}

// queryKind is what execute needs to know about NWC or kNWC.
type queryKind[Q comparable, R any] struct {
	kind     obs.Kind
	validate func(Q) error
	describe func(Q) obs.Query
	cache    func(*Index) *qcache.Cache[Q, R]
	eval     func(*Index, context.Context, *view, Q, *trace.Recorder) (R, error)
	visits   func(R) uint64
}

var (
	nwcKind = queryKind[Query, Result]{
		kind:     obs.KindNWC,
		validate: Query.Validate,
		describe: func(q Query) obs.Query { return recorded(q, 0, 0) },
		cache:    func(ix *Index) *qcache.Cache[Query, Result] { return ix.nwcCache },
		eval:     (*Index).nwcOnView,
		visits:   func(r Result) uint64 { return r.Stats.NodeVisits },
	}
	knwcKind = queryKind[KQuery, KResult]{
		kind:     obs.KindKNWC,
		validate: KQuery.Validate,
		describe: func(q KQuery) obs.Query { return recorded(q.Query, q.K, q.M) },
		cache:    func(ix *Index) *qcache.Cache[KQuery, KResult] { return ix.knwcCache },
		eval:     (*Index).knwcOnView,
		visits:   func(r KResult) uint64 { return r.Stats.NodeVisits },
	}
)

// execute answers q under x and records it. The result cache may
// answer only a plain current-view query: an explained or temporal one
// must execute, and one carrying a shared scatter bound may legitimately
// elide groups at or beyond the global bound, so its result must never
// be stored for (or served to) an unbounded caller.
func execute[Q comparable, R any](ctx context.Context, ix *Index, k *queryKind[Q, R], q Q, x exec) (R, error) {
	start := time.Now()
	var (
		res R
		hit bool
	)
	err := k.validate(q)
	if err == nil {
		tr := trace.From(ctx)
		bypass := tr.Explained() || x.asOf || rstar.BoundFromContext(ctx) != nil
		res, hit, err = qcache.Resolve(ctx, tr, k.cache(ix), bypass, ix.ViewGeneration(), q, func() (R, error) {
			v, err := ix.pin(x)
			if err != nil {
				var zero R
				return zero, err
			}
			defer v.release()
			// A sampled record gets the engine's phase split for free.
			// Tracing never changes results, so a traced execution is safe
			// to store in the cache. A coalesced waiter shares the leader's
			// result but not its recorder; its record carries no phases.
			return k.eval(ix, ctx, v, q, tr.Arm())
		})
	}
	ix.rec.Finish(k.kind, k.describe(q), start, k.visits(res), hit, err)
	return res, err
}

// pin acquires the view x selects; the caller releases it.
func (ix *Index) pin(x exec) (*view, error) {
	if x.asOf {
		return ix.viewAt(x.lsn)
	}
	return ix.acquire(), nil
}
