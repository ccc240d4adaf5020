package shard

import (
	"cmp"
	"context"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
	"nwcq/internal/obs"
	wpool "nwcq/internal/pool"
	"nwcq/internal/qcache"
	"nwcq/internal/rstar"
	"nwcq/internal/trace"
)

// Query routing (DESIGN.md §11, §12), for both NWC and kNWC:
//
//  1. Scatter: the home shard (the cell containing q) first, alone, on
//     the calling goroutine, to seed the bound; then the others in
//     ascending MINDIST(q, shard bounds), skipping a shard whose MINDIST
//     exceeds the bound so far. With Options.Parallelism above one workers
//     claim the siblings home left standing, and NWC traversals share one
//     atomic bound cell at node-visit granularity; kNWC shares its merge
//     estimate at claim granularity only (scatterKNWC).
//  2. Border: every group within B, and every point of a window that
//     yields one, lies in box(q, B+l, B+w); the router fetches that box
//     from every shard whose bounds meet it and sweeps it for the groups
//     within B (core.GroupsWithin), which up to B is the whole dataset's
//     list.
//  3. kNWC certifies: fetch box(D+l, D+w), merge the list within D
//     greedily, accept when k groups emerged, else double D. The local
//     chains only seed D.
//
// Every merge orders groups by core.CompareGroups, so the answer does not
// depend on which shard, worker or fetch produced a group first.

func coreQuery(q nwcq.Query) core.Query {
	return core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}
}

// begin starts one routed execution's attribution block (trace.Router),
// set on the request's record when it carries one, and returns it with
// the record's shard recorders — nil unless the query is explained. The
// block is owned by the routed query's goroutine; on the parallel scatter
// path workers update its counts under the scatter mutex.
func begin(tr *trace.Record) (*trace.Router, []*trace.Recorder) {
	rt := &trace.Router{}
	if tr == nil {
		return rt, nil
	}
	tr.Router = rt
	return rt, tr.Shards
}

// finishRoute flushes one routed execution's block into the global
// aggregates (one batch, one visibility point) and the phase histograms.
// The histograms record every routed execution — a phase that never ran
// records zero, keeping the three counts equal so their quantiles are
// comparable.
func (s *Sharded) finishRoute(rt *trace.Router) {
	m := s.ctr
	m.shardQueries.Add(uint64(rt.ShardsQueried))
	m.shardsPruned.Add(uint64(rt.ShardsPruned))
	m.borderFetches.Add(uint64(rt.BorderFetches))
	m.borderPoints.Add(uint64(rt.BorderPoints))
	m.fetchReruns.Add(uint64(rt.FetchReruns))
	m.phase[phaseScatter].Observe(rt.Scatter.Seconds())
	m.phase[phaseBorder].Observe(rt.Border.Seconds())
	m.phase[phaseMerge].Observe(rt.Merge.Seconds())
}

// explainShard returns the context shard i's query runs under: when
// shards is set (an explained routed query) one carrying a record armed
// for an explained execution, its recorder kept in shards[i]; otherwise
// ctx itself. Each scatter worker writes only its own shard's slot.
func explainShard(ctx context.Context, shards []*trace.Recorder, i int) context.Context {
	if shards == nil {
		return ctx
	}
	shards[i] = trace.New()
	return trace.With(ctx, &trace.Record{Engine: shards[i]})
}

// routedTrace renders an explained routed query's record, timed by the
// elapsed time the router's Finish measured.
func routedTrace(tr *trace.Record, kind string, q nwcq.Query, st nwcq.Stats, elapsed time.Duration) *nwcq.QueryTrace {
	return tr.Trace(kind, q.Scheme.String(), q.Measure.String(), core.TraceWork(st), time.Now().Add(-elapsed), elapsed)
}

// visitOrder returns the shard indexes other than home in ascending
// MINDIST(q, bounds) order, equal distances by index — the scatter's
// schedule after home.
func (s *Sharded) visitOrder(qp geom.Point, bounds []geom.Rect, home int) []int {
	order := make([]int, 0, len(bounds))
	for i := range bounds {
		if i != home {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(bounds[a].MinDist2(qp), bounds[b].MinDist2(qp)), cmp.Compare(a, b))
	})
	return order
}

// fetchBox is the rectangle that contains every object of every
// candidate group with distance at most d, and every point of every
// window that can generate such a candidate (closed bounds; see the
// routing comment).
func fetchBox(q nwcq.Query, d float64) geom.Rect {
	return geom.NewRect(q.X-(d+q.Length), q.Y-(d+q.Width), q.X+(d+q.Length), q.Y+(d+q.Width))
}

// candidates fetches every indexed point inside fetch from the shards
// whose bounds intersect it — bounds cover all of a shard's points
// (including outliers), so skipped shards provably hold nothing inside
// fetch; with parallelism above one the per-shard window queries fan out
// over the worker pool — and sweeps them for the candidate groups within
// limit of q, ascending. The fetch is the border phase, the sweep the
// merge phase.
func (s *Sharded) candidates(bounds []geom.Rect, fetch geom.Rect, q nwcq.Query, limit float64, rt *trace.Router) ([]core.Group, error) {
	start := time.Now()
	idxs := make([]int, 0, len(s.shards))
	for i := range s.shards {
		if bounds[i].Intersects(fetch) {
			idxs = append(idxs, i)
		}
	}
	parts := make([][]geom.Point, len(idxs))
	err := wpool.Each(len(idxs), s.scatterWorkers(len(idxs)), func(j int) (err error) {
		parts[j], err = s.shards[idxs[j]].Window(fetch.MinX, fetch.MinY, fetch.MaxX, fetch.MaxY)
		return err
	})
	if err != nil {
		rt.Border += time.Since(start)
		return nil, err
	}
	pts := slices.Concat(parts...)
	fetched := time.Now()
	groups := core.GroupsWithin(pts, coreQuery(q), q.Measure, limit)
	rt.BorderFetches++
	rt.BorderPoints += len(pts)
	rt.Border += fetched.Sub(start)
	rt.Merge += time.Since(fetched)
	return groups, nil
}

// intersecting counts shards whose bounds intersect fetch.
func intersecting(bounds []geom.Rect, fetch geom.Rect) int {
	n := 0
	for _, b := range bounds {
		if b.Intersects(fetch) {
			n++
		}
	}
	return n
}

// allBounds returns the union of every shard's effective bounds — a
// rectangle covering the entire dataset.
func allBounds(bounds []geom.Rect) geom.Rect {
	u := geom.EmptyRect()
	for _, b := range bounds {
		u = u.Union(b)
	}
	return u
}

// NWC answers an NWC query without cancellation.
func (s *Sharded) NWC(q nwcq.Query) (nwcq.Result, error) {
	return s.NWCCtx(context.Background(), q)
}

// NWCCtx answers an NWC query by scatter-gather over the shards. The
// result equals the single-index answer on the same points for every
// scheme and measure; Stats sums the per-shard work. With a result
// cache configured (Options.ResultCache) the answer may be served from
// a previous identical query against the same dataset version.
func (s *Sharded) NWCCtx(ctx context.Context, q nwcq.Query) (nwcq.Result, error) {
	res, _, err := s.routeNWC(ctx, q)
	return res, err
}

// ExplainNWC answers an NWC query with per-shard tracing: the request's
// record collects every queried shard's recorder, and renders as one
// router-level trace whose phases are prefixed with the shard that ran
// them, plus the router's border-fetch and border-merge phases.
// Explained queries never touch the result cache.
func (s *Sharded) ExplainNWC(ctx context.Context, q nwcq.Query) (nwcq.Result, *nwcq.QueryTrace, error) {
	ctx, tr := trace.Ensure(ctx)
	tr.Shards = make([]*trace.Recorder, len(s.shards))
	res, elapsed, err := s.routeNWC(ctx, q)
	return res, routedTrace(tr, "nwc", q, res.Stats, elapsed), err
}

// routeNWC is the router's one NWC path: through the result cache
// unless the request's record marks the query explained, then recorded.
func (s *Sharded) routeNWC(ctx context.Context, q nwcq.Query) (nwcq.Result, time.Duration, error) {
	start := time.Now()
	tr := trace.From(ctx)
	res, hit, err := qcache.Resolve(ctx, tr, s.nwcCache, tr.Explained(), s.generation(), q, func() (nwcq.Result, error) {
		return s.nwc(ctx, q, tr)
	})
	elapsed := s.rec.Finish(obs.KindNWC, recorded(q, 0, 0), start, res.Stats.NodeVisits, hit, err)
	return res, elapsed, err
}

func (s *Sharded) nwc(ctx context.Context, q nwcq.Query, tr *trace.Record) (nwcq.Result, error) {
	if err := q.Validate(); err != nil {
		return nwcq.Result{}, err
	}
	// The router owns the request's record at routed-query granularity:
	// it fills the router block, and runs the fan-out detached so the
	// per-shard indexes (and their caches) never see — or race on — it.
	ctx = trace.Detach(ctx)
	rt, shards := begin(tr)
	defer s.finishRoute(rt)
	qp := geom.Point{X: q.X, Y: q.Y}
	bounds := s.shardBounds()
	home := s.shardFor(q.X, q.Y)

	scatterStart := time.Now()
	out, best, err := s.scatterNWC(ctx, q, qp, bounds, home, shards, rt)
	rt.Scatter = time.Since(scatterStart)
	if err != nil {
		return nwcq.Result{Stats: out.Stats}, err
	}

	// Border step: candidates at or below the local best live inside this
	// box; if only one shard's bounds intersect it, that shard's local
	// answer is already globally exact — as is a best of zero under the max
	// and avg measures, whose groups at zero lie at q, in the home shard.
	// No shard finding a group on its own points, any group that exists
	// must mix points from several shards: the one case the fetch cannot be
	// bounded by a distance.
	var fetch geom.Rect
	if !out.Found {
		fetch = allBounds(bounds)
	} else if fetch = fetchBox(q, best); best == 0 && (q.Measure == nwcq.MaxDistance || q.Measure == nwcq.AvgDistance) || intersecting(bounds, fetch) <= 1 {
		return out, nil
	}
	cands, err := s.candidates(bounds, fetch, q, best, rt)
	if err != nil {
		return nwcq.Result{Stats: out.Stats}, err
	}
	if len(cands) > 0 && (!out.Found || core.CompareGroups(qp, cands[0], out.Group) < 0) {
		out.Found, out.Group = true, cands[0]
	}
	return out, nil
}

// scatter is the scatter phase's one scheduler, for both query kinds
// and every pool width. The home shard runs first, alone, on the calling
// goroutine, so that every other shard meets the bound it seeds — the
// paper's best-first order lifted to shard granularity. A sibling whose
// MINDIST exceeds limit() then is dropped; the survivors go in MINDIST
// order to the shared worker pool, whose one-worker case is a plain loop
// on the calling goroutine, and one whose MINDIST exceeds limit() when a
// worker claims it is skipped too. Each skip counts in ShardsPruned.
// Every shard that runs query has its result folded in by absorb. limit
// and absorb run under the scatter mutex, so they may share state
// freely. The first query error stops further claims and is returned
// once the in-flight shards finish.
func scatter[R any](ctx context.Context, s *Sharded, qp geom.Point, bounds []geom.Rect, home, workers int, rt *trace.Router,
	limit func() float64, query func(context.Context, int) (R, error), absorb func(R)) error {
	var mu sync.Mutex
	pruned := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		if bounds[i].MinDist(qp) > limit() {
			rt.ShardsPruned++
			return true
		}
		return false
	}
	run := func(i int) error {
		var (
			r   R
			err error
		)
		s.ctr.inflight.Add(1)
		// The label shows up on CPU profiles, splitting scatter work by
		// shard under /debug/pprof.
		pprof.Do(ctx, pprof.Labels("nwcq_scatter_shard", strconv.Itoa(i)), func(ctx context.Context) {
			r, err = query(ctx, i)
		})
		s.ctr.inflight.Add(-1)
		if err != nil {
			return err
		}
		mu.Lock()
		rt.ShardsQueried++
		absorb(r)
		mu.Unlock()
		return nil
	}
	if err := run(home); err != nil {
		return err
	}
	order := slices.DeleteFunc(s.visitOrder(qp, bounds, home), pruned)
	return wpool.Each(len(order), workers, func(j int) error {
		if pruned(order[j]) {
			return nil
		}
		return run(order[j])
	})
}

// scatterNWC runs the NWC scatter phase and returns the merged best
// local answer, the least under core.CompareGroups (best, its distance, is
// +Inf when no shard found one). With more than
// one worker — never on a single shard, the automatic fallback — the
// shard traversals cooperate through a shared bound cell:
//
//   - Every shard traversal runs with the cell on its reader, so SRR,
//     DIP, DEP and the window MINDIST gate prune against
//     min(local best, global bound) and publish improvements back.
//   - A shard still queued when the cell drops below its region MINDIST
//     is cancelled at claim time (counted in ShardsPruned, like the
//     sequential prune). The cell is ≤ every completed shard's best, so
//     it is at least as sharp as the sequential bound.
//
// Safety: the cell is monotone non-increasing and always ≥ the final
// global best B, so claim-time pruning only skips shards whose every
// group is ≥ B, and in-traversal pruning only elides groups ≥ B —
// both invisible to the merge, whose minimum is exactly B either way.
func (s *Sharded) scatterNWC(ctx context.Context, q nwcq.Query, qp geom.Point, bounds []geom.Rect, home int, shards []*trace.Recorder, rt *trace.Router) (nwcq.Result, float64, error) {
	out := nwcq.Result{}
	best := math.Inf(1)
	limit := func() float64 { return best }
	workers := s.scatterWorkers(len(bounds))
	if workers > 1 {
		sb := rstar.NewSharedBound()
		ctx = rstar.ContextWithBound(ctx, sb)
		limit = sb.Load
		defer func() { s.ctr.boundTightenings.Add(sb.Tightenings()) }()
	}
	err := scatter(ctx, s, qp, bounds, home, workers, rt, limit,
		func(ctx context.Context, i int) (nwcq.Result, error) {
			return s.shards[i].NWCCtx(explainShard(ctx, shards, i), q)
		},
		func(r nwcq.Result) {
			out.Stats.Add(r.Stats)
			if r.Found && (!out.Found || core.CompareGroups(qp, r.Group, out.Group) < 0) {
				best = r.Dist
				out.Group = r.Group
				out.Found = true
			}
		})
	return out, best, err
}

// KNWC answers a kNWC query without cancellation.
func (s *Sharded) KNWC(q nwcq.KQuery) (nwcq.KResult, error) {
	return s.KNWCCtx(context.Background(), q)
}

// KNWCCtx answers a kNWC query: per-shard KResult chains are merged
// through the same greedy dedup ordering the engine uses, then the
// merge is certified exact against a bounded candidate enumeration
// (rerunning with a doubled bound when certification fails). The
// result equals the single-index answer in group count and distances.
func (s *Sharded) KNWCCtx(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, error) {
	res, _, err := s.routeKNWC(ctx, q)
	return res, err
}

// ExplainKNWC is KNWCCtx with per-shard tracing, merged like
// ExplainNWC. Explained queries never touch the result cache.
func (s *Sharded) ExplainKNWC(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, *nwcq.QueryTrace, error) {
	ctx, tr := trace.Ensure(ctx)
	tr.Shards = make([]*trace.Recorder, len(s.shards))
	res, elapsed, err := s.routeKNWC(ctx, q)
	return res, routedTrace(tr, "knwc", q.Query, res.Stats, elapsed), err
}

// routeKNWC is routeNWC for kNWC queries.
func (s *Sharded) routeKNWC(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, time.Duration, error) {
	start := time.Now()
	tr := trace.From(ctx)
	res, hit, err := qcache.Resolve(ctx, tr, s.knwcCache, tr.Explained(), s.generation(), q, func() (nwcq.KResult, error) {
		return s.knwc(ctx, q, tr)
	})
	elapsed := s.rec.Finish(obs.KindKNWC, recorded(q.Query, q.K, q.M), start, res.Stats.NodeVisits, hit, err)
	return res, elapsed, err
}

// compatible reports whether g can join groups under the overlap budget
// m: it must share at most m objects with every member and must not
// duplicate one — the engine's (and the oracle's) acceptance rule.
func compatible(groups []core.Group, g core.Group, m int) bool {
	for _, h := range groups {
		ov := h.OverlapCount(g)
		if ov > m || ov == len(g.Objects) {
			return false
		}
	}
	return true
}

// greedy runs the acceptance rule over groups, which must ascend by
// distance: each group compatible with everything accepted so far joins,
// until k are accepted.
func greedy(groups []core.Group, k, m int) []core.Group {
	var accepted []core.Group
	for _, g := range groups {
		if compatible(accepted, g, m) {
			accepted = append(accepted, g)
			if len(accepted) == k {
				break
			}
		}
	}
	return accepted
}

// kResult renders accepted groups as the public answer.
func kResult(groups []core.Group, stats nwcq.Stats) nwcq.KResult {
	return nwcq.KResult{Groups: groups, Found: len(groups) > 0, Stats: stats}
}

func (s *Sharded) knwc(ctx context.Context, q nwcq.KQuery, tr *trace.Record) (nwcq.KResult, error) {
	if err := q.Validate(); err != nil {
		return nwcq.KResult{}, err
	}
	ctx = trace.Detach(ctx)
	rt, shards := begin(tr)
	defer s.finishRoute(rt)
	qp := geom.Point{X: q.X, Y: q.Y}
	bounds := s.shardBounds()
	home := s.shardFor(q.X, q.Y)

	scatterStart := time.Now()
	stats, merged, est, err := s.scatterKNWC(ctx, q, qp, bounds, home, shards, rt)
	rt.Scatter = time.Since(scatterStart)
	if err != nil {
		return nwcq.KResult{Stats: stats}, err
	}

	// Fast path: every candidate at or below the estimate lives in a
	// single shard, so that shard's own greedy chain is the global
	// answer — and it is exactly what the scatter's merge reproduced,
	// inside the scatter phase's time. (A shard pruned against a
	// transiently smaller estimate cannot hide here: if its MINDIST ended
	// up below the final estimate, its bounds intersect the fetch box and
	// the fast path is off.)
	if !math.IsInf(est, 1) && intersecting(bounds, fetchBox(q.Query, est)) <= 1 {
		return kResult(merged, stats), nil
	}

	// Certification loop: fetch box(D), merge the candidate list within
	// D — the certified horizon: identical to the full dataset's list up
	// to D — and accept once k groups emerged or the fetch covered
	// everything.
	d := est
	if math.IsInf(d, 1) || d <= 0 {
		d = math.Hypot(q.Length, q.Width)
	}
	whole := allBounds(bounds)
	for iter := 0; ; iter++ {
		if iter > 0 {
			rt.FetchReruns++
		}
		fetch, horizon := fetchBox(q.Query, d), d
		complete := fetch.ContainsRect(whole)
		if complete {
			fetch, horizon = whole, math.Inf(1)
		}
		cands, err := s.candidates(bounds, fetch, q.Query, horizon, rt)
		if err != nil {
			return nwcq.KResult{Stats: stats}, err
		}
		groups := greedy(cands, q.K, q.M)
		if len(groups) == q.K || complete {
			return kResult(groups, stats), nil
		}
		d = math.Max(2*d, math.Hypot(q.Length, q.Width))
	}
}

// scatterKNWC collects per-shard chains, pruning queued shards against
// the running merged estimate — the k-th distance of the greedy merge
// over the chains pooled so far in core.CompareGroups' order, +Inf while
// the pool cannot supply k groups. It returns that merge and estimate;
// the estimate only seeds the certification bound, the merge is the
// fast-path answer. The engines get no shared bound cell: the estimate
// can rise, and the fast path returns a local chain verbatim, which must
// have been built unbounded (DESIGN.md §12).
func (s *Sharded) scatterKNWC(ctx context.Context, q nwcq.KQuery, qp geom.Point, bounds []geom.Rect, home int, shards []*trace.Recorder, rt *trace.Router) (nwcq.Stats, []core.Group, float64, error) {
	var (
		stats  nwcq.Stats
		pool   []core.Group
		merged []core.Group
	)
	est := math.Inf(1)
	err := scatter(ctx, s, qp, bounds, home, s.scatterWorkers(len(bounds)), rt,
		func() float64 { return est },
		func(ctx context.Context, i int) (nwcq.KResult, error) {
			return s.shards[i].KNWCCtx(explainShard(ctx, shards, i), q)
		},
		func(kr nwcq.KResult) {
			stats.Add(kr.Stats)
			pool = append(pool, kr.Groups...)
			slices.SortFunc(pool, func(a, b core.Group) int { return core.CompareGroups(qp, a, b) })
			merged = greedy(pool, q.K, q.M)
			est = math.Inf(1)
			if len(merged) == q.K {
				est = merged[q.K-1].Dist
			}
		})
	return stats, merged, est, err
}

// Window runs a range query across every shard and concatenates the
// results (shards hold disjoint point sets, so no dedup is needed).
func (s *Sharded) Window(minX, minY, maxX, maxY float64) ([]nwcq.Point, error) {
	start := time.Now()
	var out []nwcq.Point
	var err error
	for _, ix := range s.shards {
		var pts []nwcq.Point
		pts, err = ix.Window(minX, minY, maxX, maxY)
		if err != nil {
			break
		}
		out = append(out, pts...)
	}
	s.rec.Observe(obs.KindWindow, start, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Nearest merges every shard's k nearest into the global k nearest,
// ascending by distance.
func (s *Sharded) Nearest(x, y float64, k int) ([]nwcq.Point, error) {
	start := time.Now()
	out, err := s.nearest(x, y, k)
	s.rec.Observe(obs.KindNearest, start, err)
	return out, err
}

func (s *Sharded) nearest(x, y float64, k int) ([]nwcq.Point, error) {
	var all []nwcq.Point
	for _, ix := range s.shards {
		pts, err := ix.Nearest(x, y, k)
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	slices.SortStableFunc(all, func(a, b nwcq.Point) int {
		return cmp.Compare((a.X-x)*(a.X-x)+(a.Y-y)*(a.Y-y), (b.X-x)*(b.X-x)+(b.Y-y)*(b.Y-y))
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// NWCBatch answers many NWC queries concurrently, in input order.
func (s *Sharded) NWCBatch(queries []nwcq.Query, opt nwcq.BatchOptions) ([]nwcq.Result, error) {
	return s.NWCBatchCtx(context.Background(), queries, opt)
}

// NWCBatchCtx fans routed NWC queries over a worker pool; the first
// error aborts the batch, matching the single-index semantics.
func (s *Sharded) NWCBatchCtx(ctx context.Context, queries []nwcq.Query, opt nwcq.BatchOptions) ([]nwcq.Result, error) {
	return wpool.Map(ctx, queries, wpool.Workers(opt.Parallelism, int(s.par.Load())), s.NWCCtx)
}

// KNWCBatch answers many kNWC queries concurrently, in input order.
func (s *Sharded) KNWCBatch(queries []nwcq.KQuery, opt nwcq.BatchOptions) ([]nwcq.KResult, error) {
	return s.KNWCBatchCtx(context.Background(), queries, opt)
}

// KNWCBatchCtx is the kNWC batch form of NWCBatchCtx.
func (s *Sharded) KNWCBatchCtx(ctx context.Context, queries []nwcq.KQuery, opt nwcq.BatchOptions) ([]nwcq.KResult, error) {
	return wpool.Map(ctx, queries, wpool.Workers(opt.Parallelism, int(s.par.Load())), s.KNWCCtx)
}
