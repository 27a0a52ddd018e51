package serve

import (
	"time"

	"ams/internal/batch"
	"ams/internal/obs"
	"ams/internal/zoo"
)

// Metrics is the server's hot-path instrument set, registered once at
// construction (never in the item loop — the obsclean analyzer enforces
// constant metric names at registration sites). One Metrics is shared
// by every shard of a logical server: counters and histograms are
// concurrency-safe, so per-model series aggregate fleet-wide while
// per-shard live state is exposed separately through RegisterViews.
//
// A nil *Metrics disables instrumentation: every helper method no-ops,
// no clock is read, and nothing allocates (obs.TestNilInstrumentsAllocFree);
// what the enabled path may add per item is bounded by the root
// package's TestTelemetryAllocationOverhead.
type Metrics struct {
	Admitted    *obs.Counter     // items accepted onto the queue
	Shed        *obs.Counter     // items rejected with ErrQueueFull
	QueueWait   *obs.Histogram   // simulated seconds from submit to dequeue
	Select      *obs.Histogram   // real seconds of policy.Next per item (Table III overhead)
	Latency     *obs.Histogram   // simulated seconds from submit to completion
	ReserveWait *obs.Histogram   // real seconds blocked on the memory accountant
	ExecCount   []*obs.Counter   // executions per model
	ExecLatency []*obs.Histogram // simulated seconds per model execution (incl. batch hold)

	// Quality proxy (ROADMAP's ground-truth-free signal, first half):
	// on ingested traffic — no ground truth, so no recall — compare what
	// a schedule banked against what the agent thinks is still on the
	// table. Mass is the summed confidence of valuable labels actually
	// produced; Residual is the agent's best remaining Q-value at
	// schedule end; Ratio is residual/(mass+residual) for the most
	// recent such item (near 0: schedules are exhausting the value the
	// agent can see; near 1: deadlines are leaving predicted value
	// unharvested).
	QualityMass     *obs.Histogram
	QualityResidual *obs.Histogram
	QualityRatio    *obs.Gauge

	// Batch carries the batching runtime's instruments (nil when the
	// registry is nil), threaded into the batcher at construction.
	Batch *batch.Metrics

	// SLOs are the latency objectives every completed item is accounted
	// against (itemDone feeds each one the item's simulated-clock
	// latency). Observing an SLO only classifies and counts — nothing
	// feeds back into scheduling — so bit-identity holds. Empty when no
	// objectives are configured.
	SLOs []*obs.SLO
}

// NewMetrics registers the serve-layer instruments against reg. Returns
// nil on a nil registry, which disables instrumentation everywhere it
// is threaded.
func NewMetrics(reg *obs.Registry, models []*zoo.Model) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		Admitted: reg.Counter("ams_items_admitted_total",
			"Items accepted onto the admission queue"),
		Shed: reg.Counter("ams_items_shed_total",
			"Items rejected at admission (queue full)"),
		QueueWait: reg.Histogram("ams_queue_wait_seconds",
			"Simulated seconds an item waited in the admission queue"),
		Select: reg.Histogram("ams_select_seconds",
			"Real seconds of scheduler selection overhead per item"),
		Latency: reg.Histogram("ams_item_latency_seconds",
			"Simulated seconds from submission to completion"),
		ReserveWait: reg.Histogram("ams_mem_reserve_wait_seconds",
			"Real seconds executions blocked waiting for GPU memory"),
		QualityMass: reg.Histogram("ams_quality_conf_mass",
			"Per ingested item: summed confidence of valuable labels produced (unitless)"),
		QualityResidual: reg.Histogram("ams_quality_predicted_residual",
			"Per ingested item: the agent's best remaining Q-value at schedule end (unitless)"),
		QualityRatio: reg.Gauge("ams_quality_residual_ratio",
			"Most recent ingested item: predicted residual / (banked mass + residual)"),
		Batch: batch.NewMetrics(reg),
	}
	m.ExecCount = make([]*obs.Counter, len(models))
	m.ExecLatency = make([]*obs.Histogram, len(models))
	for i, mod := range models {
		m.ExecCount[i] = reg.Counter("ams_model_exec_total",
			"Model executions (batched requests count once per request)",
			obs.L("model", mod.Name))
		m.ExecLatency[i] = reg.Histogram("ams_model_exec_seconds",
			"Simulated seconds per model execution as seen by the item (includes batch hold)",
			obs.L("model", mod.Name))
	}
	return m
}

// admitted / shed record the admission outcome (no-op on nil).
func (m *Metrics) admitted() {
	if m == nil {
		return
	}
	m.Admitted.Inc()
}

func (m *Metrics) shed() {
	if m == nil {
		return
	}
	m.Shed.Inc()
}

// execStart stamps the clock for one model execution span — the zero
// time when disabled, so the hot path pays one nil check only.
func (m *Metrics) execStart(model int) time.Time {
	if m == nil {
		return time.Time{}
	}
	return obs.Started(m.ExecLatency[model])
}

// execDone counts the execution and observes its span on the simulated
// clock.
func (m *Metrics) execDone(model int, t0 time.Time, scale float64) {
	if m == nil {
		return
	}
	m.ExecCount[model].Inc()
	m.ExecLatency[model].ObserveScaledSince(t0, scale)
}

// itemDone records one completed item's stage timings: queue wait and
// end-to-end latency in simulated seconds (already rescaled by the
// caller, which derives them from the same record ServeStats reads),
// selection overhead in real seconds.
func (m *Metrics) itemDone(waitSec, latencySec, selectSec float64) {
	if m == nil {
		return
	}
	m.QueueWait.Observe(waitSec)
	m.Latency.Observe(latencySec)
	m.Select.Observe(selectSec)
	for _, slo := range m.SLOs {
		slo.Observe(latencySec)
	}
}

// quality records the ground-truth-free quality proxy for one ingested
// item.
func (m *Metrics) quality(mass, residual float64) {
	if m == nil {
		return
	}
	m.QualityMass.Observe(mass)
	m.QualityResidual.Observe(residual)
	if total := mass + residual; total > 0 {
		m.QualityRatio.Set(residual / total)
	} else {
		m.QualityRatio.Set(0)
	}
}

// RegisterViews exposes this server's live state as labeled series on
// reg — per-shard gauges over the same fields Stats reads, so /metrics
// and ServeStats can never disagree. Call once per server, with a
// distinguishing shard label when several servers share one registry.
func (s *Server) RegisterViews(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("ams_queue_depth",
		"Items waiting in the admission queue right now",
		func() float64 { return float64(len(s.queue)) }, labels...)
	reg.CounterFunc("ams_items_completed_total",
		"Items whose schedules have committed",
		func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.completed }, labels...)
	reg.CounterFunc("ams_items_rejected_total",
		"Admissions rejected with a full queue",
		func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.rejected }, labels...)
	reg.CounterFunc("ams_results_dropped_total",
		"Results-stream entries shed behind a lagging consumer",
		func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.resDropped }, labels...)
	if s.acct != nil {
		reg.GaugeFunc("ams_mem_inuse_mb",
			"GPU megabytes currently reserved by in-flight executions",
			s.acct.inUse, labels...)
		reg.GaugeFunc("ams_mem_peak_mb",
			"Maximum simultaneous GPU reservation observed",
			s.acct.peak, labels...)
		reg.CounterFunc("ams_mem_stalls_total",
			"Reservations or selection retries that blocked on the memory budget",
			s.acct.waitCount, labels...)
	}
}
