// Package obs is the serving stack's runtime telemetry layer: sharded
// atomic counters, gauges, log-bucketed latency histograms with
// quantile snapshots, a named-metric registry with Prometheus text
// exposition, a bounded per-item ring of causal span traces (with
// critical-path attribution and Chrome trace-event export), SLO
// burn-rate accounting, an anomaly flight recorder, and an opt-in
// HTTP exporter (/metrics, /statusz, /tracez, /debug/pprof).
//
// The package is built around two hard promises the serving layer
// depends on:
//
//   - Inert when disabled. Every instrument method is a no-op on its
//     zero value (a nil *Counter, *Gauge, *Histogram, *Tracer, or
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
// Timing in the virtual-time packages goes through this package's
// helpers (Started, SinceSeconds, Histogram.ObserveSince,
// Histogram.ObserveScaledSince) rather than raw time.Since deltas: the
// helpers are the one seam that knows whether a measured span is real
// seconds (scheduler CPU overhead, fsync) or must be rescaled onto the
// simulated clock (queue wait, batch hold), and the obsclean analyzer
// enforces the discipline mechanically.
package obs

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// counterStripes is the per-Counter stripe count (a power of two).
// Writers scatter across stripes so a hot counter shared by the whole
// worker pool does not serialize on one cache line; Value sums them.
const counterStripes = 8

// stripe pads one atomic to a cache line so neighboring stripes never
// false-share.
type stripe struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing, write-sharded counter. The
// zero value is ready to use; a nil Counter is a no-op.
type Counter struct {
	stripes [counterStripes]stripe
}

// NewCounter returns a fresh counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	// rand/v2's per-goroutine generator is lock-free and allocation-free:
	// a cheap scatter that spreads concurrent writers over the stripes.
	c.stripes[rand.Uint32()&(counterStripes-1)].n.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous float64 value (queue depth, resident
// megabytes). The zero value is ready; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a fresh gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
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

// SinceSeconds returns the real seconds elapsed since t0. It is the
// sanctioned wall-clock delta for the virtual-time packages (obsclean
// flags raw time.Since there): keeping every delta behind one seam
// makes the real-versus-simulated bookkeeping auditable in one place.
func SinceSeconds(t0 time.Time) float64 {
	return time.Since(t0).Seconds()
}
