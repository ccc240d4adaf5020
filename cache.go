package nwcq

// Parallel execution and result caching knobs. The mechanics live in
// internal/pool (the bounded worker pool every fan-out shares) and
// internal/qcache (the single-flight generation cache); this file wires
// them to the public Index.

// WithParallelism sets the index's default worker-pool width for batch
// execution (NWCBatch, KNWCBatch and their Ctx forms): how many queries
// run concurrently when BatchOptions.Parallelism is zero (the per-call
// option wins). n <= 0 keeps the default, GOMAXPROCS. A sharded
// deployment configures the router's scatter width separately through
// shard.Options.Parallelism.
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
