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
	// SizeFlush / HoldFlush / GrantFlush split sealed batches by flush
	// cause.
	SizeFlush  *obs.Counter
	HoldFlush  *obs.Counter
	GrantFlush *obs.Counter
}

// NewMetrics registers the batching instruments (nil on a nil
// registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	flushes := func(cause string) *obs.Counter {
		return reg.Counter("ams_batch_flush_total", "Sealed batches by flush cause", obs.L("cause", cause))
	}
	return &Metrics{
		Size: reg.Histogram("ams_batch_size",
			"Sealed batch sizes in requests (buckets are unitless)"),
		Hold: reg.Histogram("ams_batch_hold_seconds",
			"Simulated seconds a sealed batch's oldest request waited for batch-mates or its memory grant"),
		SizeFlush:  flushes(flushSize),
		HoldFlush:  flushes(flushHold),
		GrantFlush: flushes(flushGrant),
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

// sealed records one sealed batch: size, flush cause, and the oldest
// request's hold converted onto the simulated clock.
func (m *Metrics) sealed(n int, flush string, heldSince time.Time, scale float64) {
	if m == nil {
		return
	}
	m.Size.Observe(float64(n))
	switch flush {
	case flushSize:
		m.SizeFlush.Inc()
	case flushHold:
		m.HoldFlush.Inc()
	case flushGrant:
		m.GrantFlush.Inc()
	}
	m.Hold.ObserveScaledSince(heldSince, scale)
}
