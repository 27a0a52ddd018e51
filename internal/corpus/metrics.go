package corpus

import (
	"time"

	"ams/internal/obs"
)

// Metrics carries the corpus's durability instruments. Spans are real
// seconds — fsync and append cost are genuine I/O, never rescaled onto
// the simulated clock. A nil *Metrics disables instrumentation.
type Metrics struct {
	// Append distributes the encode+write latency of one journal record
	// (taken under the corpus mutex, where appends serialize).
	Append *obs.Histogram
	// Fsync distributes group-commit fsync latency (taken outside the
	// mutex, where the flusher syncs).
	Fsync *obs.Histogram
}

// NewMetrics registers the corpus instruments under the given labels
// (typically a segment index). Nil on a nil registry.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Append: reg.Histogram("ams_corpus_append_seconds",
			"Real seconds to encode and append one journal record", labels...),
		Fsync: reg.Histogram("ams_corpus_fsync_seconds",
			"Real seconds per group-commit journal fsync", labels...),
	}
}

func (m *Metrics) appendStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return obs.Started(m.Append)
}

func (m *Metrics) appendDone(t0 time.Time) {
	if m == nil {
		return
	}
	m.Append.ObserveSince(t0)
}

func (m *Metrics) fsyncStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return obs.Started(m.Fsync)
}

func (m *Metrics) fsyncDone(t0 time.Time) {
	if m == nil {
		return
	}
	m.Fsync.ObserveSince(t0)
}

// SetMetrics attaches telemetry to the corpus. Call before serving
// traffic (the ams layer does so during server construction).
func (c *Corpus) SetMetrics(m *Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = m
}

// RegisterViews exposes the corpus's durability counters on reg as
// labeled views over the same state Stats reads. No-op on nil.
func (c *Corpus) RegisterViews(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("ams_corpus_items",
		"Items the corpus tracks (admitted, ever)",
		func() float64 { return float64(c.Stats().Items) }, labels...)
	reg.GaugeFunc("ams_corpus_resident",
		"Items whose memoized outputs occupy memory",
		func() float64 { return float64(c.Stats().Resident) }, labels...)
	reg.CounterFunc("ams_corpus_evicted_total",
		"Memo reclamations since open",
		func() int64 { return c.Stats().Evicted }, labels...)
	reg.GaugeFunc("ams_corpus_journal_bytes",
		"Current journal size including the header",
		func() float64 { return float64(c.Stats().JournalBytes) }, labels...)
	reg.CounterFunc("ams_corpus_syncs_total",
		"Group-commit fsync batches since open",
		func() int64 { return c.Stats().Syncs }, labels...)
	reg.GaugeFunc("ams_corpus_unsynced",
		"Records appended and not yet fsynced",
		func() float64 { return float64(c.Stats().Unsynced) }, labels...)
}
