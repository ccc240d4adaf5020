package shard

import (
	"cmp"
	"context"
	"fmt"
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
	"nwcq/internal/qevent"
	"nwcq/internal/rstar"
)

// Query routing. The plan for both NWC and kNWC is:
//
//  1. Scatter: run the query locally on the home shard (the cell
//     containing q) to seed a distance bound, then on the remaining
//     shards in ascending MINDIST(q, shard bounds) order, skipping any
//     shard whose MINDIST exceeds the current bound — the paper's
//     best-first node pruning lifted to shard granularity. With
//     Options.Parallelism above one, workers claim shards off that
//     schedule concurrently and cooperate through a shared atomic bound
//     cell: for NWC, every in-flight shard traversal prunes against the
//     live global bound (threaded through rstar.Reader into SRR/DIP/DEP
//     at node-visit granularity) and publishes its improvements back;
//     still-queued shards whose MINDIST exceeds the cell are cancelled
//     at claim time. kNWC shares its merge estimate at claim
//     granularity only — see scatterKNWC for why engine-level sharing
//     would be unsound there.
//  2. Border: local answers are exact for groups drawn from one
//     shard's points, but a window straddling a shard boundary can
//     cluster points no single shard holds together. Every group with
//     distance at most B has all its objects — and every point of any
//     window that could generate a competing candidate — inside
//     box(q, B+l, B+w), so fetching that box's points from every shard
//     whose bounds intersect it and sweeping the fetched set for the
//     candidate groups within B (core.GroupsWithin: the engine's verify
//     stage over a sorted slice, costing what lies under B, not the cube
//     of what was fetched) provably covers all of them. Candidates from
//     partially-fetched windows are real feasible groups (their objects
//     genuinely co-fit), so they can never beat the true optimum —
//     taking the minimum stays exact.
//  3. kNWC needs the full candidate *sequence* below the answer's k-th
//     distance, not just the best group, so the border step becomes a
//     certification loop: fetch box(D+l, D+w), greedily merge the
//     candidate list within D (the same sweep; up to D it is provably
//     identical to the full dataset's list), and accept when k groups
//     emerged; otherwise double D and rerun. The local chains only seed
//     D — correctness never depends on them.
//
// The border and certify fetches fan their per-shard window queries out
// over the same worker pool; the sweep sorts what they return, so its
// list does not depend on the order they return it in.
//
// See DESIGN.md §11 for the containment proofs and §12 for the
// shared-bound safety argument.

func coreQuery(q nwcq.Query) core.Query {
	return core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}
}

// routeStats accumulates one routed query's attribution: the fan-out
// counts and the wall-clock split across the scatter, border and merge
// phases. It is owned by the routed query's goroutine; on the parallel
// scatter path workers update the count fields under the scatter mutex.
// finishRoute flushes it once — into the global aggregates, the phase
// histograms, and the request's wide event when one is attached.
type routeStats struct {
	shardsQueried int
	shardsPruned  int
	borderFetches int
	borderPoints  int
	fetchReruns   int
	scatter       time.Duration
	border        time.Duration
	merge         time.Duration
}

// finishRoute flushes one routed execution's attribution. Counters move
// to the global aggregates in one batch (same totals as the old inline
// increments, one visibility point). The phase histograms record every
// routed execution — a phase that never ran records zero, keeping the
// three counts equal so their quantiles are comparable.
func (s *Sharded) finishRoute(rt *routeStats, ev *qevent.Event) {
	m := s.ctr
	m.shardQueries.Add(uint64(rt.shardsQueried))
	m.shardsPruned.Add(uint64(rt.shardsPruned))
	m.borderFetches.Add(uint64(rt.borderFetches))
	m.borderPoints.Add(uint64(rt.borderPoints))
	m.fetchReruns.Add(uint64(rt.fetchReruns))
	m.phase[phaseScatter].Observe(rt.scatter.Seconds())
	m.phase[phaseBorder].Observe(rt.border.Seconds())
	m.phase[phaseMerge].Observe(rt.merge.Seconds())
	if ev != nil {
		ev.Router = &qevent.Router{
			ShardsQueried: rt.shardsQueried,
			ShardsPruned:  rt.shardsPruned,
			BorderFetches: rt.borderFetches,
			BorderPoints:  rt.borderPoints,
			FetchReruns:   rt.fetchReruns,
			ScatterNs:     rt.scatter.Nanoseconds(),
			BorderNs:      rt.border.Nanoseconds(),
			MergeNs:       rt.merge.Nanoseconds(),
		}
	}
}

// visitOrder returns shard indexes with home first and the rest in
// ascending MINDIST(q, bounds) order, equal distances by index — the
// scatter schedule.
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
	return append([]int{home}, order...)
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
func (s *Sharded) candidates(bounds []geom.Rect, fetch geom.Rect, q nwcq.Query, limit float64, col *explainCollector, rt *routeStats) ([]core.Group, error) {
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
		rt.border += time.Since(start)
		return nil, err
	}
	pts := slices.Concat(parts...)
	fetched := time.Now()
	groups := core.GroupsWithin(pts, coreQuery(q), q.Measure, limit)
	fetching, sweeping := fetched.Sub(start), time.Since(fetched)
	rt.borderFetches++
	rt.borderPoints += len(pts)
	rt.border += fetching
	rt.merge += sweeping
	col.borderDone(len(pts), fetching, sweeping)
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
	res, _, err := s.routeNWC(ctx, q, nil)
	return res, err
}

// ExplainNWC answers an NWC query with per-shard tracing, merging the
// shard traces into one router-level trace whose phases are prefixed
// with the shard that ran them, plus synthetic border-fetch and
// border-merge phases.
// Explained queries never touch the result cache.
func (s *Sharded) ExplainNWC(ctx context.Context, q nwcq.Query) (nwcq.Result, *nwcq.QueryTrace, error) {
	col := &explainCollector{}
	res, elapsed, err := s.routeNWC(ctx, q, col)
	return res, col.merged("nwc", q.Scheme, q.Measure, elapsed, res.Stats.NodeVisits), err
}

// routeNWC is the router's one NWC path: through the result cache
// unless a collector marks the query explained, then recorded.
func (s *Sharded) routeNWC(ctx context.Context, q nwcq.Query, col *explainCollector) (nwcq.Result, time.Duration, error) {
	start := time.Now()
	res, hit, err := qcache.Resolve(ctx, s.nwcCache, col != nil, s.generation(), q, func() (nwcq.Result, error) {
		return s.nwc(ctx, q, col)
	})
	elapsed := s.rec.Finish(obs.KindNWC, recorded(q, 0, 0), start, res.Stats.NodeVisits, hit, err)
	return res, elapsed, err
}

func (s *Sharded) nwc(ctx context.Context, q nwcq.Query, col *explainCollector) (nwcq.Result, error) {
	if err := q.Validate(); err != nil {
		return nwcq.Result{}, err
	}
	// The router owns the request's wide event at routed-query
	// granularity: read it here, then run the fan-out detached so the
	// per-shard indexes (and their caches) never see — or race on — it.
	ev := qevent.From(ctx)
	ctx = qevent.Detach(ctx)
	rt := &routeStats{}
	defer func() { s.finishRoute(rt, ev) }()
	qp := geom.Point{X: q.X, Y: q.Y}
	bounds := s.shardBounds()
	home := s.shardFor(q.X, q.Y)

	scatterStart := time.Now()
	out, best, err := s.scatterNWC(ctx, q, qp, bounds, home, col, rt)
	rt.scatter = time.Since(scatterStart)
	if err != nil {
		return nwcq.Result{Stats: out.Stats}, err
	}

	// Border step: candidates at or below the local best live inside this
	// box; if only one shard's bounds intersect it, that shard's local
	// answer is already globally exact — as is a best of zero, which
	// nothing is under. No shard finding a group on its own points, any
	// group that exists must mix points from several shards: the one case
	// the fetch cannot be bounded by a distance.
	var fetch geom.Rect
	if !out.Found {
		fetch = allBounds(bounds)
	} else if fetch = fetchBox(q, best); best == 0 || intersecting(bounds, fetch) <= 1 {
		return out, nil
	}
	cands, err := s.candidates(bounds, fetch, q, best, col, rt)
	if err != nil {
		return nwcq.Result{Stats: out.Stats}, err
	}
	if len(cands) > 0 && cands[0].Dist < best {
		out.Found, out.Group = true, cands[0]
	}
	return out, nil
}

// scatter is the scatter phase's one scheduler, for both query kinds
// and every pool width: it visits the shards in MINDIST order (home
// first) over the shared worker pool, whose one-worker case is a plain
// loop on the calling goroutine. A shard other than home whose MINDIST
// exceeds limit() when a worker claims it is skipped — the paper's
// best-first node pruning lifted to shard granularity; every other
// shard runs query and has its result folded in by absorb. limit and
// absorb run under the scatter mutex, so they may share state freely.
// The first query error stops further claims and is returned once the
// in-flight shards finish.
func scatter[R any](ctx context.Context, s *Sharded, qp geom.Point, bounds []geom.Rect, home, workers int, rt *routeStats,
	limit func() float64, query func(context.Context, int) (R, error), absorb func(R)) error {
	order := s.visitOrder(qp, bounds, home)
	var mu sync.Mutex
	return wpool.Each(len(order), workers, func(j int) error {
		i := order[j]
		mu.Lock()
		pruned := i != home && bounds[i].MinDist(qp) > limit()
		if pruned {
			rt.shardsPruned++
		}
		mu.Unlock()
		if pruned {
			return nil
		}
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
		rt.shardsQueried++
		absorb(r)
		mu.Unlock()
		return nil
	})
}

// scatterNWC runs the NWC scatter phase and returns the merged best
// local answer (best is +Inf when no shard found one). With more than
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
func (s *Sharded) scatterNWC(ctx context.Context, q nwcq.Query, qp geom.Point, bounds []geom.Rect, home int, col *explainCollector, rt *routeStats) (nwcq.Result, float64, error) {
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
			if col == nil {
				return s.shards[i].NWCCtx(ctx, q)
			}
			res, tr, err := s.shards[i].ExplainNWC(ctx, q)
			col.add(i, tr)
			return res, err
		},
		func(r nwcq.Result) {
			out.Stats.Add(r.Stats)
			if r.Found && r.Dist < best {
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
	res, _, err := s.routeKNWC(ctx, q, nil)
	return res, err
}

// ExplainKNWC is KNWCCtx with per-shard tracing, merged like
// ExplainNWC. Explained queries never touch the result cache.
func (s *Sharded) ExplainKNWC(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, *nwcq.QueryTrace, error) {
	col := &explainCollector{}
	res, elapsed, err := s.routeKNWC(ctx, q, col)
	return res, col.merged("knwc", q.Scheme, q.Measure, elapsed, res.Stats.NodeVisits), err
}

// routeKNWC is routeNWC for kNWC queries.
func (s *Sharded) routeKNWC(ctx context.Context, q nwcq.KQuery, col *explainCollector) (nwcq.KResult, time.Duration, error) {
	start := time.Now()
	res, hit, err := qcache.Resolve(ctx, s.knwcCache, col != nil, s.generation(), q, func() (nwcq.KResult, error) {
		return s.knwc(ctx, q, col)
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

func (s *Sharded) knwc(ctx context.Context, q nwcq.KQuery, col *explainCollector) (nwcq.KResult, error) {
	if err := q.Validate(); err != nil {
		return nwcq.KResult{}, err
	}
	ev := qevent.From(ctx)
	ctx = qevent.Detach(ctx)
	rt := &routeStats{}
	defer func() { s.finishRoute(rt, ev) }()
	qp := geom.Point{X: q.X, Y: q.Y}
	bounds := s.shardBounds()
	home := s.shardFor(q.X, q.Y)

	scatterStart := time.Now()
	stats, merged, est, err := s.scatterKNWC(ctx, q, qp, bounds, home, col, rt)
	rt.scatter = time.Since(scatterStart)
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
			rt.fetchReruns++
		}
		fetch, horizon := fetchBox(q.Query, d), d
		complete := fetch.ContainsRect(whole)
		if complete {
			fetch, horizon = whole, math.Inf(1)
		}
		cands, err := s.candidates(bounds, fetch, q.Query, horizon, col, rt)
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
// over the chains pooled so far (in a candidate list's order: ascending
// by distance, then set key — whichever worker's chain came first), +Inf
// while the pool cannot supply k groups. It returns that merge and
// estimate over every queried shard; the estimate only seeds the
// certification bound, the merge is the fast-path answer.
//
// Unlike NWC, the per-traversal engines get NO shared bound cell: the
// merge estimate is non-monotone (accepting a pooled group can push the
// k-th greedy distance up, since greedy acceptance is blocked by
// overlap), and the single-intersecting-shard fast path returns a local
// chain verbatim — which is only correct if that chain was built
// unbounded. Shard-claim pruning stays sound regardless, because a
// shard skipped against a transiently small estimate either stays
// irrelevant (MINDIST above the final estimate) or disables the fast
// path and is covered by the certification fetch.
func (s *Sharded) scatterKNWC(ctx context.Context, q nwcq.KQuery, qp geom.Point, bounds []geom.Rect, home int, col *explainCollector, rt *routeStats) (nwcq.Stats, []core.Group, float64, error) {
	var (
		stats  nwcq.Stats
		pool   []core.Group
		merged []core.Group
	)
	est := math.Inf(1)
	err := scatter(ctx, s, qp, bounds, home, s.scatterWorkers(len(bounds)), rt,
		func() float64 { return est },
		func(ctx context.Context, i int) (nwcq.KResult, error) {
			if col == nil {
				return s.shards[i].KNWCCtx(ctx, q)
			}
			res, tr, err := s.shards[i].ExplainKNWC(ctx, q)
			col.add(i, tr)
			return res, err
		},
		func(kr nwcq.KResult) {
			stats.Add(kr.Stats)
			pool = append(pool, kr.Groups...)
			slices.SortFunc(pool, core.CompareGroups)
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

// explainCollector gathers per-shard traces during an explained routed
// query; a nil collector is the no-trace fast path. It is safe for the
// scatter workers' concurrent add calls.
type explainCollector struct {
	mu      sync.Mutex
	entries []shardTrace
	// What the border step fetched, and how long its fetches and its
	// sweeps took, summed over a certification loop's reruns.
	borderPoints int
	borderTime   time.Duration
	mergeTime    time.Duration
}

type shardTrace struct {
	shard int
	trace *nwcq.QueryTrace
}

func (c *explainCollector) add(shard int, tr *nwcq.QueryTrace) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = append(c.entries, shardTrace{shard: shard, trace: tr})
	c.mu.Unlock()
}

// borderDone adds one fetch and the sweep of what it fetched to the
// border-fetch and border-merge phases.
func (c *explainCollector) borderDone(points int, fetching, sweeping time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.borderPoints += points
	c.borderTime += fetching
	c.mergeTime += sweeping
	c.mu.Unlock()
}

// merged assembles the router-level trace: every shard's phases
// prefixed with its shard number, counters summed, plus synthetic
// border-fetch and border-merge phases when a fetch ran. Shard entries
// are ordered by shard index so the merged trace is stable under
// parallel scatter.
func (c *explainCollector) merged(kind string, scheme nwcq.Scheme, measure nwcq.Measure, elapsed time.Duration, visits uint64) *nwcq.QueryTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	slices.SortStableFunc(c.entries, func(a, b shardTrace) int { return cmp.Compare(a.shard, b.shard) })
	qt := &nwcq.QueryTrace{
		Kind:       kind,
		Scheme:     scheme.String(),
		Measure:    measure.String(),
		StartedAt:  time.Now().Add(-elapsed),
		Duration:   elapsed,
		NodeVisits: visits,
	}
	for _, e := range c.entries {
		prefix := fmt.Sprintf("shard%d:", e.shard)
		for _, p := range e.trace.Phases {
			qt.Phases = append(qt.Phases, nwcq.PhaseTrace{
				Phase:      prefix + p.Phase,
				Duration:   p.Duration,
				Entered:    p.Entered,
				NodeVisits: p.NodeVisits,
			})
		}
		qt.Counters = addCounters(qt.Counters, e.trace.Counters)
		if e.trace.HeapHighWater > qt.HeapHighWater {
			qt.HeapHighWater = e.trace.HeapHighWater
		}
		if e.trace.CandidateHighWater > qt.CandidateHighWater {
			qt.CandidateHighWater = e.trace.CandidateHighWater
		}
	}
	if c.borderPoints > 0 || c.borderTime > 0 {
		qt.Phases = append(qt.Phases, nwcq.PhaseTrace{
			Phase:    "border-fetch",
			Duration: c.borderTime,
			Entered:  1,
		}, nwcq.PhaseTrace{
			Phase:    "border-merge",
			Duration: c.mergeTime,
			Entered:  1,
		})
	}
	return qt
}

func addCounters(a, b nwcq.TraceCounters) nwcq.TraceCounters {
	a.SRRShrinks += b.SRRShrinks
	a.SRRSkips += b.SRRSkips
	a.DIPPrunedNodes += b.DIPPrunedNodes
	a.DEPPrunedNodes += b.DEPPrunedNodes
	a.DEPSkippedObjects += b.DEPSkippedObjects
	a.GridProbes += b.GridProbes
	a.WindowQueries += b.WindowQueries
	a.AnchorsGated += b.AnchorsGated
	a.CandidateWindows += b.CandidateWindows
	a.QualifiedWindows += b.QualifiedWindows
	a.WindowsGated += b.WindowsGated
	a.WindowsRepeated += b.WindowsRepeated
	a.GroupsEmitted += b.GroupsEmitted
	a.IWPJumpStarts += b.IWPJumpStarts
	a.IWPRootStarts += b.IWPRootStarts
	a.IWPOverlapScans += b.IWPOverlapScans
	a.MemoServed += b.MemoServed
	a.MemoStrips += b.MemoStrips
	a.MemoBypassed += b.MemoBypassed
	a.NeverQueued += b.NeverQueued
	a.StoppedAtBound += b.StoppedAtBound
	a.Clipped += b.Clipped
	a.DedupOffered += b.DedupOffered
	a.DedupAccepted += b.DedupAccepted
	return a
}
