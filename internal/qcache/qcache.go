// Package qcache implements the single-flight, generation-keyed query
// result cache behind WithResultCache and shard.Options.ResultCache.
//
// The design leans entirely on the index's RCU view publication (PR 4):
// views are immutable and swapped in atomically, so a query result is
// valid exactly until the next publish. Each publish bumps a monotone
// generation counter; the cache stores the generation its entries were
// computed under and compares it on every access — invalidation is one
// integer compare, with the whole map dropped lazily on first access at
// a newer generation. Entries are the result values themselves, so a
// hit copies nothing and allocates nothing.
//
// Duplicate concurrent lookups of the same key coalesce: the first
// caller computes (the leader), the rest wait on the flight's channel
// and share its value. A leader error is never cached — waiters fall
// back to computing for themselves, uncached, since the error may be
// private to the leader's context.
//
// Resolve is the one cached-execution sequence both frontends (the
// index and the shard router) run a query through: bypass or lookup,
// single-flight compute, and the cache outcome stamped on the request's
// record (internal/trace).
package qcache

import (
	"context"
	"sync"
	"sync/atomic"

	"nwcq/internal/trace"
)

// Stats is a point-in-time copy of a cache's counters.
type Stats struct {
	// Hits served a stored value; Misses computed one (or bypassed a
	// stale generation); Coalesced waited on another caller's in-flight
	// computation instead of duplicating it.
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	// Invalidations counts generation advances that dropped a non-empty
	// map.
	Invalidations uint64
	// Entries is the current population (including in-flight leaders).
	Entries int
}

// entry is one cache slot: a completed value, or an in-flight
// computation other callers wait on.
type entry[V any] struct {
	done chan struct{} // closed when the flight lands
	// landed/val/ok are written under the cache mutex before done is
	// closed; map readers check landed under the mutex, channel waiters
	// read after <-done. ok is false when the leader failed (the entry
	// is then already removed from the map).
	landed bool
	val    V
	ok     bool
}

// Cache is a single-flight result cache over one generation counter.
// The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	capacity int

	mu  sync.Mutex
	gen uint64
	m   map[K]*entry[V]

	hits, misses, coalesced, invalidations atomic.Uint64
}

// New returns a cache holding at most capacity entries, or nil —
// caching off, which Resolve understands — when capacity is not
// positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		return nil
	}
	return &Cache[K, V]{capacity: capacity, m: make(map[K]*entry[V], capacity)}
}

// syncGen aligns the map with the caller's generation, reporting
// whether the caller may use it. Callers hold mu.
//
// A caller ahead of the map (gen > c.gen) resets it: every stored entry
// predates a publish the caller has observed. A caller *behind* the map
// (gen < c.gen) is a delayed reader of a superseded view; it must not
// read newer entries as its own nor poison the newer map with its
// older-generation result, so it bypasses the cache entirely.
func (c *Cache[K, V]) syncGen(gen uint64) bool {
	if gen == c.gen {
		return true
	}
	if gen < c.gen {
		return false
	}
	if len(c.m) > 0 {
		c.invalidations.Add(1)
		clear(c.m)
	}
	c.gen = gen
	return true
}

// Get is the zero-allocation hit path: it returns the value stored for
// k at generation gen, if one is present and landed. It never waits and
// never counts a miss — callers follow up with Do, which does both.
func (c *Cache[K, V]) Get(gen uint64, k K) (v V, ok bool) {
	c.mu.Lock()
	if c.syncGen(gen) {
		if e := c.m[k]; e != nil && e.landed {
			v, ok = e.val, true
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// Do returns the value for k at generation gen, computing it with fn on
// a miss. Concurrent Dos for one key coalesce onto a single fn call;
// waiters abandon the wait (but not the leader) when ctx is done. A gen
// older than the cache's computes uncached. fn errors are returned to
// the leader and never cached.
func (c *Cache[K, V]) Do(ctx context.Context, gen uint64, k K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if !c.syncGen(gen) {
		c.mu.Unlock()
		c.misses.Add(1)
		return fn()
	}
	if e := c.m[k]; e != nil {
		if e.landed {
			v := e.val
			c.mu.Unlock()
			c.hits.Add(1)
			return v, nil
		}
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-e.done:
			if e.ok {
				return e.val, nil
			}
			// The leader failed; its error may belong to its own context.
			// Compute independently, uncached.
			return fn()
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	if len(c.m) >= c.capacity {
		c.evictLocked()
	}
	c.m[k] = e
	c.mu.Unlock()

	c.misses.Add(1)
	v, err := fn()

	c.mu.Lock()
	e.val, e.ok, e.landed = v, err == nil, true
	// A generation advance while computing cleared the map (and any
	// newer flight owns the key now); only unlink our own failed entry.
	if err != nil && c.m[k] == e {
		delete(c.m, k)
	}
	c.mu.Unlock()
	close(e.done)
	return v, err
}

// Resolve answers k through c and reports whether the answer was a hit,
// stamping the outcome on tr, the request's record (nil: none). bypass
// marks an execution that must neither read nor fill the cache (an
// explained or temporal query, or one running under a shared scatter
// bound, whose result may legitimately elide groups an unbounded caller
// needs); a nil c means caching is off. Either way fn runs directly. gen
// is the caller's dataset generation.
func Resolve[K comparable, V any](ctx context.Context, tr *trace.Record, c *Cache[K, V], bypass bool, gen uint64, k K, fn func() (V, error)) (v V, hit bool, err error) {
	if bypass || c == nil {
		if tr != nil {
			tr.Cache = trace.CacheOff
			if bypass {
				tr.Cache = trace.CacheBypass
			}
		}
		v, err = fn()
		return v, false, err
	}
	if v, hit = c.Get(gen, k); hit {
		if tr != nil {
			tr.Cache = trace.CacheHit
		}
		return v, true, nil
	}
	if tr != nil {
		tr.Cache = trace.CacheMiss
	}
	v, err = c.Do(ctx, gen, k, fn)
	return v, false, err
}

// evictLocked frees one slot, preferring a landed entry over an
// in-flight one (evicting a flight is harmless — its leader still
// completes and wakes its waiters — but wastes the coalescing).
// Callers hold mu.
func (c *Cache[K, V]) evictLocked() {
	var fallback K
	haveFallback := false
	for k, e := range c.m {
		if e.landed {
			delete(c.m, k)
			return
		}
		fallback, haveFallback = k, true
	}
	if haveFallback {
		delete(c.m, fallback)
	}
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	entries := len(c.m)
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
	}
}

// Add merges two stats snapshots (summing counters), for frontends
// aggregating an NWC and a kNWC cache into one report.
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Invalidations += o.Invalidations
	s.Entries += o.Entries
	return s
}
