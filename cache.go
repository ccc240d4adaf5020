package nwcq

import (
	"context"

	"nwcq/internal/pool"
	"nwcq/internal/qcache"
	"nwcq/internal/qevent"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// Parallel execution and result caching knobs. The mechanics live in
// internal/pool (the bounded worker pool every fan-out shares) and
// internal/qcache (the single-flight generation cache); this file wires
// them to the public Index.

// WithParallelism sets the index's default worker-pool width for batch
// execution (NWCBatch, KNWCBatch and their Ctx forms): how many queries
// run concurrently when BatchOptions.Parallelism is zero. n <= 0 keeps
// the default, GOMAXPROCS. A sharded deployment configures the router's
// scatter width separately through shard.Options.Parallelism.
func WithParallelism(n int) BuildOption {
	return func(o *buildOptions) { o.parallelism = n }
}

// WithResultCache gives the index a query result cache of up to entries
// results per query kind (NWC and kNWC are cached independently);
// entries <= 0 disables caching (the default).
//
// Entries are keyed by the full query value plus the view generation
// (ViewGeneration), so a cached result is served only while the exact
// dataset version that produced it is still the published one — any
// Insert or Delete invalidates the whole cache with a single generation
// compare. Hits are zero-copy and allocation-free: the stored Result is
// returned verbatim, including the Stats of the execution that produced
// it (the hit itself visits no nodes, and index metrics record zero
// visits for it). Duplicate concurrent identical queries coalesce onto
// one execution. Explained queries and queries running under a shared
// scatter bound bypass the cache.
func WithResultCache(entries int) BuildOption {
	return func(o *buildOptions) { o.resultCache = entries }
}

// ViewGeneration returns the generation number of the currently
// published view: 1 for the freshly built or opened index, incremented
// by every published mutation. It is monotone, so "has anything changed
// since generation g" is one compare — the result cache's entire
// invalidation protocol.
func (ix *Index) ViewGeneration() uint64 { return ix.cur.Load().gen }

// resultCache pairs the NWC and kNWC caches of one frontend. A nil
// *resultCache means caching is off.
type resultCache struct {
	nwc  *qcache.Cache[Query, Result]
	knwc *qcache.Cache[KQuery, KResult]
}

func newResultCache(entries int) *resultCache {
	if entries <= 0 {
		return nil
	}
	return &resultCache{
		nwc:  qcache.New[Query, Result](entries),
		knwc: qcache.New[KQuery, KResult](entries),
	}
}

func (c *resultCache) stats() qcache.Stats {
	return c.nwc.Stats().Add(c.knwc.Stats())
}

// nwcCached answers q through the result cache when one is configured,
// reporting whether the answer was a hit. Queries carrying a shared
// scatter bound bypass the cache entirely: a bounded execution may
// legitimately elide groups at or beyond the global bound, so its
// result must never be stored for (or served to) an unbounded caller.
func (ix *Index) nwcCached(ctx context.Context, q Query) (Result, bool, error) {
	ev := qevent.From(ctx)
	c := ix.cache
	if c == nil || rstar.BoundFromContext(ctx) != nil {
		if ev != nil {
			if c == nil {
				ev.Cache = qevent.CacheOff
			} else {
				ev.Cache = qevent.CacheBypass
			}
		}
		res, err := ix.nwcEvent(ctx, q, ev)
		return res, false, err
	}
	gen := ix.ViewGeneration()
	if res, ok := c.nwc.Get(gen, q); ok {
		if ev != nil {
			ev.Cache = qevent.CacheHit
		}
		return res, true, nil
	}
	if ev != nil {
		ev.Cache = qevent.CacheMiss
	}
	res, err := c.nwc.Do(ctx, gen, q, func() (Result, error) {
		return ix.nwcEvent(ctx, q, ev)
	})
	return res, false, err
}

// knwcCached is nwcCached for kNWC queries.
func (ix *Index) knwcCached(ctx context.Context, q KQuery) (KResult, bool, error) {
	ev := qevent.From(ctx)
	c := ix.cache
	if c == nil || rstar.BoundFromContext(ctx) != nil {
		if ev != nil {
			if c == nil {
				ev.Cache = qevent.CacheOff
			} else {
				ev.Cache = qevent.CacheBypass
			}
		}
		res, err := ix.knwcEvent(ctx, q, ev)
		return res, false, err
	}
	gen := ix.ViewGeneration()
	if res, ok := c.knwc.Get(gen, q); ok {
		if ev != nil {
			ev.Cache = qevent.CacheHit
		}
		return res, true, nil
	}
	if ev != nil {
		ev.Cache = qevent.CacheMiss
	}
	res, err := c.knwc.Do(ctx, gen, q, func() (KResult, error) {
		return ix.knwcEvent(ctx, q, ev)
	})
	return res, false, err
}

// nwcEvent executes the query, attaching a trace recorder when a wide
// event rides the context so the event gets the engine's phase split
// for free. Tracing never changes results, so a traced execution is
// safe to store in the cache. A coalesced waiter shares the leader's
// result but not its recorder; its event simply carries no phases.
func (ix *Index) nwcEvent(ctx context.Context, q Query, ev *qevent.Event) (Result, error) {
	if ev == nil {
		return ix.nwc(ctx, q, nil)
	}
	rec := trace.New()
	res, err := ix.nwc(ctx, q, rec)
	ev.Phases = eventPhases(rec)
	return res, err
}

// knwcEvent is nwcEvent for kNWC queries.
func (ix *Index) knwcEvent(ctx context.Context, q KQuery, ev *qevent.Event) (KResult, error) {
	if ev == nil {
		return ix.knwc(ctx, q, nil)
	}
	rec := trace.New()
	res, err := ix.knwc(ctx, q, rec)
	ev.Phases = eventPhases(rec)
	return res, err
}

// eventPhases copies a finished recorder's phase breakdown into the
// wide-event form.
func eventPhases(rec *trace.Recorder) []qevent.Phase {
	s := rec.Snapshot()
	out := make([]qevent.Phase, 0, len(s.Phases))
	for _, p := range s.Phases {
		out = append(out, qevent.Phase{
			Name:       p.Phase.String(),
			DurationNs: int64(p.Duration),
			Entered:    p.Entered,
			NodeVisits: p.Visits,
		})
	}
	return out
}

// batchWorkers resolves the worker count for one batch call: the
// per-call option wins, then the index's WithParallelism default, then
// GOMAXPROCS.
func (ix *Index) batchWorkers(opt BatchOptions) int {
	if opt.Parallelism > 0 {
		return opt.Parallelism
	}
	return pool.Workers(ix.options.parallelism)
}
