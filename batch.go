package nwcq

import (
	"context"

	"nwcq/internal/pool"
)

// Batch execution. Queries are safe under unrestricted concurrency, so
// independent queries parallelise perfectly; this file provides the
// fan-out boilerplate over the shared bounded worker pool
// (internal/pool — the same pool the sharded router's scatter phase
// uses). Results are returned in input order, and every result's Stats
// is exact for its own query — per-query accounting is carried on
// query-private counters, never shared between workers.
// Each query in a batch pins its own view at entry, so a batch that
// overlaps mutations may answer different queries against different
// (each internally consistent) versions; IWP-scheme queries need no
// up-front settling because the per-view IWP state is built
// single-flight on first use.
//
// The storage layers are built for exactly this fan-out: on a paged
// index, workers share the decoded-node cache (per-shard locking) and
// read the pages it misses under per-page striped locks, and each query
// draws its working memory (heap, candidate
// buffers, selection scratch) from a sync.Pool, so steady-state batch
// load allocates almost nothing per query.

// BatchOptions configures batch execution.
type BatchOptions struct {
	// Parallelism is the number of worker goroutines; 0 falls back to
	// the index's WithParallelism setting, then GOMAXPROCS.
	Parallelism int
}

// NWCBatch answers many NWC queries concurrently. The i-th result
// corresponds to queries[i]. The first error aborts the batch.
func (ix *Index) NWCBatch(queries []Query, opt BatchOptions) ([]Result, error) {
	return ix.NWCBatchCtx(context.Background(), queries, opt)
}

// NWCBatchCtx is NWCBatch under a context: every query in the batch
// runs under ctx, so cancellation aborts the whole batch with the
// context's error.
func (ix *Index) NWCBatchCtx(ctx context.Context, queries []Query, opt BatchOptions) ([]Result, error) {
	return pool.Map(ctx, queries, pool.Workers(opt.Parallelism, ix.options.parallelism), ix.NWCCtx)
}

// KNWCBatch answers many kNWC queries concurrently. The i-th result
// corresponds to queries[i]. The first error aborts the batch.
func (ix *Index) KNWCBatch(queries []KQuery, opt BatchOptions) ([]KResult, error) {
	return ix.KNWCBatchCtx(context.Background(), queries, opt)
}

// KNWCBatchCtx is KNWCBatch under a context, with NWCBatchCtx's
// cancellation semantics.
func (ix *Index) KNWCBatchCtx(ctx context.Context, queries []KQuery, opt BatchOptions) ([]KResult, error) {
	return pool.Map(ctx, queries, pool.Workers(opt.Parallelism, ix.options.parallelism), ix.KNWCCtx)
}
