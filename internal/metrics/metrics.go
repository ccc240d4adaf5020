// Package metrics provides the lock-free observability primitives
// beside the histogram: monotonic atomic counters, the slow-query ring
// (ring.go), the Prometheus text writer (prom.go) and the build identity
// (buildinfo.go). Nothing here allocates or takes a lock on the query
// path, so instrumented queries stay wait-free with respect to each
// other at any parallelism.
//
// The histogram is internal/histo's — the same log-bucketed core the load
// harness (cmd/nwcload) records into, so server-side and client-side
// quantiles are estimated identically — and its callers name it there.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }
