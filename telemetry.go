package ams

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ams/internal/obs"
)

// TelemetryMetric is one metric series' point-in-time state, as carried
// in ServeStats.Telemetry: counters and gauges report Value; histograms
// additionally report Count, Sum, and the nearest-rank quantiles (Value
// is then the mean). The same series, in the same units, appear on the
// HTTP exporter's /metrics endpoint — DESIGN.md §8 catalogs them.
type TelemetryMetric = obs.Metric

// A DecisionTrace is one completed item's trace record: the span tree of
// its lifecycle stages from arrival to commit, each scheduling decision
// carried on the span that timed it. Traces live in a bounded ring (the
// most recent TraceCapacity items), retrievable by recency (Traces), by
// submission tag (TraceFor), or over HTTP as JSON (/tracez; add
// ?format=chrome for Perfetto). DroppedSpans counts spans past the
// per-item cap. Home and Shard differ exactly when the item was stolen
// across shards. CriticalPath attributes the item's end-to-end latency
// to its stages and WriteCriticalPath renders that.
type DecisionTrace = obs.ItemTrace

// A TraceSpan is one timed stage of an item's lifecycle — queue wait,
// select asks, reserve wait, batch hold, execution, commit — in a
// parent/child tree under span 0 (the root "item" span). Offsets are
// measured from the item's arrival on both clocks: StartUS/EndUS in
// wall microseconds and VStartMS/VEndMS in virtual milliseconds (wall ÷
// TimeScale), so simulated and real-time runs of one schedule read
// identically in the virtual columns. A "select" span's Model is the
// policy's pick (-1: it declined, Note says why when models remained)
// and its RemainingMS/AvailMemMB are the deadline budget and memory
// headroom the ask saw (-1: unbounded); a "reserve-wait" span noted
// "stall" is a declined ask waiting for memory to free; a "batch-hold"
// span's Queued is the lane occupancy it joined; the "commit" span's
// RemainingMS is the budget the schedule left unspent.
type TraceSpan = obs.Span

// A TraceSpanLink is a causality edge that crosses shard boundaries:
// "steal" links a stolen item's home shard to the shard that executed
// it. It sits on the item's root span.
type TraceSpanLink = obs.SpanLink

// A CriticalPathStage is one attributed stage of an item's critical
// path: how much of the item's end-to-end latency the stage accounts
// for, in wall microseconds and virtual milliseconds, and as a fraction
// of the whole.
type CriticalPathStage = obs.PathStage

// An SLOObjective is one parsed latency objective: "the Quantile
// fraction of items must complete within ThresholdSec".
type SLOObjective struct {
	Name         string
	Quantile     float64 // good-fraction target in (0, 1), e.g. 0.99
	ThresholdSec float64
}

// ParseSLO parses a latency-objective spec of the form "p99<250ms" —
// optionally named, "checkout:p95<1s". The quantile is the objective's
// good-fraction target; the duration (any time.ParseDuration spelling)
// is its latency threshold on the simulated clock. The name defaults to
// the quantile spelling.
func ParseSLO(spec string) (SLOObjective, error) {
	var o SLOObjective
	body := spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		o.Name, body = spec[:i], spec[i+1:]
	}
	q, thr, ok := strings.Cut(body, "<")
	if !ok || !strings.HasPrefix(q, "p") {
		return o, fmt.Errorf("ams: bad SLO spec %q (want e.g. \"p99<250ms\" or \"name:p95<1s\")", spec)
	}
	pct, err := strconv.ParseFloat(q[1:], 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return o, fmt.Errorf("ams: bad SLO quantile in %q (want p1–p99.999)", spec)
	}
	d, err := time.ParseDuration(thr)
	if err != nil || d <= 0 {
		return o, fmt.Errorf("ams: bad SLO threshold in %q: need a positive duration", spec)
	}
	o.Quantile = pct / 100
	o.ThresholdSec = d.Seconds()
	if o.Name == "" {
		o.Name = q
	}
	return o, nil
}

// MetricsAddr reports the HTTP exporter's bound address — useful with
// ServeConfig.MetricsAddr ":0" — or "" when the exporter is off.
func (sv *Server) MetricsAddr() string {
	return sv.exporter.Addr()
}

// Traces returns up to n of the most recently completed items' traces,
// newest first. Nil unless ServeConfig.Telemetry is on. The traces'
// spans are shared with the ring: read, don't write.
func (sv *Server) Traces(n int) []DecisionTrace {
	return sv.tracer.Recent(n)
}

// TraceFor returns the most recent resident decision trace for an item
// submitted with the given tag (ItemID), if it is still in the ring.
func (sv *Server) TraceFor(tag string) (DecisionTrace, bool) {
	return sv.tracer.ByTag(tag)
}

// SlowestTrace returns the resident trace with the longest end-to-end
// latency (by root-span wall duration) — the natural input to
// CriticalPath / WriteCriticalPath after a run. False when no spanned
// traces are resident (telemetry off, or nothing completed).
func (sv *Server) SlowestTrace() (DecisionTrace, bool) {
	var (
		best    DecisionTrace
		bestDur int64 = -1
	)
	for _, tr := range sv.Traces(sv.tracer.Capacity()) {
		if len(tr.Spans) == 0 {
			continue
		}
		if d := tr.Spans[0].EndUS - tr.Spans[0].StartUS; d > bestDur {
			best, bestDur = tr, d
		}
	}
	return best, bestDur >= 0
}
