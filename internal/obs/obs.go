// Package obs is the serving stack's runtime telemetry layer: atomic
// counters, log-bucketed latency histograms with quantile snapshots,
// scrape-time counter and gauge views over state the server already
// keeps, a named-metric registry with Prometheus text
// exposition, a bounded per-item ring of causal span traces (with
// critical-path attribution and Chrome trace-event export), SLO
// burn-rate accounting, an anomaly flight recorder, and an opt-in
// HTTP exporter (/metrics, /statusz, /tracez, /debug/pprof).
//
// The package is built around two hard promises the serving layer
// depends on:
//
//   - Inert when disabled. Every instrument method is a no-op on its
//     zero value (a nil *Counter, *Histogram, *Tracer, or
//     *ItemTrace), so call sites in the hot path need no guards and the
//     disabled configuration costs one nil check per hook — no clock
//     reads, no allocations, no atomics. Started returns the zero time
//     for a nil histogram so even the wall clock is untouched.
//
//   - Invisible when enabled. Instruments only ever count and measure;
//     they never feed back into scheduling state, so an instrumented
//     server produces bit-identical schedules, labels, and stats to an
//     uninstrumented one (the root package's identity test holds the
//     layer to this).
//
// A histogram records real seconds (scheduler CPU overhead, fsync) or
// seconds rescaled onto the simulated clock (queue wait, batch hold)
// according to the method its call site uses: ObserveSince or
// ObserveScaledSince. Both pair with Started.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	n atomic.Int64
}

// NewCounter returns a fresh counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count so far (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Started returns the wall-clock start stamp for a span that will be
// observed into h — and the zero time when h is nil, so a disabled
// instrument never even reads the clock. Pair with ObserveSince or
// ObserveScaledSince, which treat a zero stamp as "span never started".
func Started(h *Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}
