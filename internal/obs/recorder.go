// Package obs is the query-observability core shared by every backend:
// one Recorder (per-kind counts, latency and node-visit histograms, the
// per-scheme counts, the slow-query ring and its threshold), one
// snapshot builder (snapshot.go) and one Prometheus family table
// (families.go). A single *nwcq.Index and the shard router each hold a
// Recorder and end every query in the same Finish call, so what one
// backend reports the other reports too.
//
// Recording is a handful of atomic adds plus one threshold load: no
// lock, no allocation. It sits outside the per-query Stats carrier, so
// Stats is exact per query and the Recorder is exact in aggregate.
package obs

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"nwcq/internal/core"
	"nwcq/internal/histo"
	"nwcq/internal/metrics"
)

// Kind indexes the per-operation aggregates.
type Kind int

const (
	KindNWC Kind = iota
	KindKNWC
	KindNearest
	KindWindow
	KindInsert
	KindDelete
	kindCount
)

var kindNames = [kindCount]string{"nwc", "knwc", "nearest", "window", "insert", "delete"}

// ErrInvalidQuery tags every parameter-validation failure (the root
// package re-exports it). A rejected query never executed — and may
// carry NaN/Inf parameters that would poison the slow log's JSON
// encoding — so Finish counts it but keeps it out of the slow log.
var ErrInvalidQuery = errors.New("nwcq: invalid query")

// SlowLogSize is the number of entries a slow-query ring retains.
const SlowLogSize = 128

// SchemeIndex packs a scheme's four optimisation flags into the index
// of its per-scheme counter.
func SchemeIndex(srr, dip, dep, iwp bool) int {
	i := 0
	if srr {
		i |= 1
	}
	if dip {
		i |= 2
	}
	if dep {
		i |= 4
	}
	if iwp {
		i |= 8
	}
	return i
}

// schemeName is SchemeIndex's inverse, in the paper's scheme names.
func schemeName(i int) string {
	return core.Scheme{SRR: i&1 != 0, DIP: i&2 != 0, DEP: i&4 != 0, IWP: i&8 != 0}.String()
}

// Query is what a finished NWC/kNWC query reports to Finish: its
// resolved scheme and the parameters a slow-log entry carries.
type Query struct {
	X, Y, Length, Width float64
	N, K, M             int
	// Scheme is the query scheme's SchemeIndex.
	Scheme int
	// Measure is rendered only if the query enters the slow log.
	Measure fmt.Stringer
}

// Recorder aggregates across queries with atomics only; it is safe for
// concurrent use and adds no lock to the query path.
type Recorder struct {
	queries [kindCount]metrics.Counter
	errors  [kindCount]metrics.Counter
	latency [kindCount]*histo.Histogram // seconds
	// visits holds the per-query node visits of the two kinds that
	// report them, KindNWC and KindKNWC.
	visits [KindKNWC + 1]*histo.Histogram
	// byScheme counts NWC/kNWC queries per resolved scheme (SchemeIndex).
	byScheme [16]metrics.Counter

	// slowNs is the slow-query threshold; zero means off, and the query
	// path then pays one atomic load and one branch. slow is the
	// lock-free ring of offending queries, each stamped with source.
	slowNs atomic.Int64
	slow   *metrics.Ring[SlowQueryEntry]
	source string
}

// NewRecorder builds a recorder whose slow log starts at threshold
// (zero or negative: off) and stamps its entries with source — empty
// for a single index, "router" for the shard router.
func NewRecorder(threshold time.Duration, source string) *Recorder {
	r := &Recorder{slow: metrics.NewRing[SlowQueryEntry](SlowLogSize), source: source}
	for k := range r.latency {
		// 1µs .. ~8.4s in ×2 steps.
		r.latency[k] = histo.Must(histo.LogBuckets(1e-6, 2, 24))
	}
	for k := range r.visits {
		// 1 .. ~8.4M node visits in ×2 steps.
		r.visits[k] = histo.Must(histo.LogBuckets(1, 2, 24))
	}
	r.SetSlowThreshold(threshold)
	return r
}

// Observe records one finished operation of a kind that reports
// neither node visits nor a scheme: window, nearest, insert, delete.
func (r *Recorder) Observe(kind Kind, start time.Time, err error) {
	r.observe(kind, time.Since(start), err)
}

func (r *Recorder) observe(kind Kind, elapsed time.Duration, err error) {
	r.queries[kind].Inc()
	if err != nil {
		r.errors[kind].Inc()
	}
	r.latency[kind].Observe(elapsed.Seconds())
}

// Finish records one finished NWC or kNWC query — the single end point
// of every such entry point in either backend — and returns its elapsed
// time. cacheHit marks an answer served from a result cache: it visited
// no nodes, whatever the stored Stats (which describe the execution
// that populated the entry) say. Past the threshold check the query
// also enters the slow log; the entry is built only then.
func (r *Recorder) Finish(kind Kind, q Query, start time.Time, visits uint64, cacheHit bool, err error) time.Duration {
	elapsed := time.Since(start)
	if cacheHit {
		visits = 0
	}
	r.observe(kind, elapsed, err)
	r.visits[kind].Observe(float64(visits))
	r.byScheme[q.Scheme].Inc()
	if th := r.slowNs.Load(); th > 0 && int64(elapsed) >= th && !errors.Is(err, ErrInvalidQuery) {
		e := &SlowQueryEntry{
			Kind:    kindNames[kind],
			Scheme:  schemeName(q.Scheme),
			Measure: q.Measure.String(),
			X:       q.X, Y: q.Y, Length: q.Length, Width: q.Width, N: q.N,
			K: q.K, M: q.M,
			StartedAt: start, Duration: elapsed, NodeVisits: visits,
			Source: r.source,
		}
		if err != nil {
			e.Error = err.Error()
		}
		r.slow.Put(e)
	}
	return elapsed
}

// SetSlowThreshold adjusts the slow-query threshold at runtime; zero or
// negative disables the log. Safe to call concurrently with queries.
func (r *Recorder) SetSlowThreshold(threshold time.Duration) {
	if threshold < 0 {
		threshold = 0
	}
	r.slowNs.Store(int64(threshold))
}

// SlowThreshold returns the current threshold, zero when the log is
// disabled.
func (r *Recorder) SlowThreshold() time.Duration { return time.Duration(r.slowNs.Load()) }

// SlowQueries returns the retained slow-log entries, newest first.
func (r *Recorder) SlowQueries() []SlowQueryEntry {
	ptrs := r.slow.Snapshot()
	out := make([]SlowQueryEntry, 0, len(ptrs))
	for _, p := range ptrs {
		out = append(out, *p)
	}
	SortSlowQueries(out)
	return out
}

// SortSlowQueries orders entries newest first, entries that started at
// the same instant in the order given.
func SortSlowQueries(entries []SlowQueryEntry) {
	slices.SortStableFunc(entries, func(a, b SlowQueryEntry) int { return b.StartedAt.Compare(a.StartedAt) })
}
