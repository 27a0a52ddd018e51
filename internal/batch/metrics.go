package batch

import (
	"time"

	"ams/internal/obs"
)

// Metrics is the batcher's telemetry hook set. A nil *Metrics (the
// default) disables instrumentation: every method no-ops and the lane
// hot path never stamps the clock.
type Metrics struct {
	// Size distributes sealed batch sizes (request counts; the
	// histogram's geometric buckets are unitless here).
	Size *obs.Histogram
	// Hold distributes, in simulated seconds, how long each sealed
	// batch's oldest request waited for batch-mates — or, on an owned
	// lane, for the batch's memory grant.
	Hold *obs.Histogram
}

// NewMetrics registers the batching instruments (nil on a nil
// registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Size: reg.Histogram("ams_batch_size",
			"Sealed batch sizes in requests (buckets are unitless)"),
		Hold: reg.Histogram("ams_batch_hold_seconds",
			"Simulated seconds a sealed batch's oldest request waited for batch-mates or its memory grant"),
	}
}

// RegisterViews exposes the flush causes that stats counts as
// ams_batch_flush_total{cause}, read at scrape time: the Stats counts
// are the only count of a flush. stats sums every batcher of the
// server. No-op on a nil registry.
func RegisterViews(reg *obs.Registry, stats func() Stats) {
	for _, c := range []struct {
		cause string
		n     func(Stats) int64
	}{
		{flushSize, func(st Stats) int64 { return st.SizeFlushes }},
		{flushHold, func(st Stats) int64 { return st.HoldFlushes }},
		{flushGrant, func(st Stats) int64 { return st.GrantFlushes }},
	} {
		reg.CounterFunc("ams_batch_flush_total", "Sealed batches by flush cause",
			func() int64 { return c.n(stats()) }, obs.L("cause", c.cause))
	}
}

// holdStart stamps the wall clock for a lane's hold span — the zero
// time when metrics are disabled, so the disabled path never reads the
// clock.
func (m *Metrics) holdStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return obs.Started(m.Hold)
}

// sealed records one sealed batch: its size and the oldest request's
// hold converted onto the simulated clock.
func (m *Metrics) sealed(n int, heldSince time.Time, scale float64) {
	if m == nil {
		return
	}
	m.Size.Observe(float64(n))
	m.Hold.ObserveScaledSince(heldSince, scale)
}
