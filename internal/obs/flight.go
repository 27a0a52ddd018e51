package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// A Trigger is one anomaly detector the flight recorder polls: Fire
// reports whether the anomaly is live plus a human-readable detail
// ("shed rate 41.2/s over limit 5/s") for the bundle header.
type Trigger struct {
	Name string
	Fire func() (fired bool, detail string)
}

// RateTrigger adapts a monotonic counter sample into a trigger
// condition: fires when the counter grows faster than perSec per second
// of now's clock between two polls. The first poll only establishes
// the baseline.
func RateTrigger(now func() float64, sample func() int64, perSec float64) func() (bool, string) {
	var (
		prev   int64
		prevAt float64
		primed bool
	)
	return func() (bool, string) {
		at, v := now(), sample()
		dt, delta, baseline := at-prevAt, v-prev, !primed
		prev, prevAt, primed = v, at, true
		if baseline || dt <= 0 || delta <= 0 {
			return false, ""
		}
		if rate := float64(delta) / dt; rate > perSec {
			return true, fmt.Sprintf("rate %.1f/s over limit %g/s", rate, perSec)
		}
		return false, ""
	}
}

// ThresholdTrigger fires when a sampled gauge exceeds limit.
func ThresholdTrigger(sample func() float64, limit float64) func() (bool, string) {
	return func() (bool, string) {
		if v := sample(); v >= limit {
			return true, fmt.Sprintf("value %.2f at or over limit %g", v, limit)
		}
		return false, ""
	}
}

// A FlightBundle is one persisted anomaly snapshot: the moment before
// the incident — recent span traces plus the full metrics registry —
// frozen to disk before the ring can overwrite it.
type FlightBundle struct {
	Trigger  string      `json:"trigger"`
	Detail   string      `json:"detail,omitempty"`
	WallTime string      `json:"wall_time"`
	UnixUS   int64       `json:"unix_us"`
	Metrics  []Metric    `json:"metrics"`
	Traces   []ItemTrace `json:"traces"`
}

// A bundle write, written or failed, silences the triggers until both
// flightCooldownSec seconds of the recorder's clock and
// flightCooldownPolls polls (5 s of wall time at the 250 ms poll period)
// have passed; flightTraces is how many recent traces a bundle carries.
const (
	flightCooldownSec   = 5
	flightCooldownPolls = 20
	flightTraces        = 64
)

// FlightRecorder polls a set of anomaly triggers against live
// telemetry and, when one fires, atomically writes a timestamped JSON
// FlightBundle (recent trace ring + registry snapshot) into its
// directory — a pre-anomaly black box. Dumps are rate-limited by a
// cooldown so a sustained incident produces a bounded series of
// bundles, not one per poll. The poll period is wall time; the cooldown
// (and the rate triggers) count seconds of the clock the recorder is
// built with, the one the server's SLOs burn on, and the cooldown also
// counts polls, so a clock that runs far ahead of wall time (a small
// TimeScale) still writes at most one bundle per 5 s of wall time. A
// nil recorder no-ops
// everything; Close waits for the poll goroutine so servers embedding
// one stay leak-test clean.
type FlightRecorder struct {
	dir      string
	reg      *Registry
	tr       *Tracer
	now      func() float64 // clock in seconds
	triggers []Trigger
	interval time.Duration // wall-clock poll period

	lastDump  float64 // clock stamp of the newest write attempt; poll's alone
	sinceDump int     // polls since the newest write attempt's; poll's alone

	dumps atomic.Int64
	errs  atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// NewFlightRecorder builds a recorder writing bundles under dir, polling
// triggers every 250 ms and measuring its cooldown on now, the clock in
// seconds.
func NewFlightRecorder(dir string, reg *Registry, tr *Tracer, now func() float64, triggers ...Trigger) *FlightRecorder {
	return &FlightRecorder{
		dir:       dir,
		reg:       reg,
		tr:        tr,
		now:       now,
		triggers:  triggers,
		interval:  250 * time.Millisecond,
		lastDump:  math.Inf(-1),
		sinceDump: flightCooldownPolls,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start launches the poll goroutine; call it once (no-op on nil).
func (f *FlightRecorder) Start() {
	if f == nil {
		return
	}
	go f.run()
}

func (f *FlightRecorder) run() {
	defer close(f.done)
	tick := time.NewTicker(f.interval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			f.poll()
		}
	}
}

// poll evaluates every trigger once. Each trigger is always sampled
// (rate triggers need the baseline to advance) even while the cooldown
// suppresses dumps. Only the poll goroutine, and Close after it has
// exited, run poll.
func (f *FlightRecorder) poll() {
	now := f.now()
	f.sinceDump++
	cool := now-f.lastDump < flightCooldownSec || f.sinceDump < flightCooldownPolls
	for _, tg := range f.triggers {
		fired, detail := tg.Fire()
		if !fired || cool {
			continue
		}
		// One attempt per poll at most, and a failed one cools down as
		// a written one does: an unwritable directory fails once per
		// cooldown, not once per poll.
		cool = true
		f.lastDump, f.sinceDump = now, 0
		if err := f.write(tg.Name, detail); err != nil {
			f.errs.Add(1)
		}
	}
}

// write persists one bundle. The write is atomic: a temp file in dir
// renamed into place, so a reader never sees a torn bundle.
func (f *FlightRecorder) write(trigger, detail string) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	now := time.Now()
	b := FlightBundle{
		Trigger:  trigger,
		Detail:   detail,
		WallTime: now.Format(time.RFC3339Nano),
		UnixUS:   now.UnixMicro(),
		Metrics:  f.reg.Snapshot(),
		Traces:   f.tr.Recent(flightTraces),
	}
	if b.Metrics == nil {
		b.Metrics = []Metric{}
	}
	if b.Traces == nil {
		b.Traces = []ItemTrace{}
	}
	name := fmt.Sprintf("flight-%s-%s.json", now.UTC().Format("20060102T150405.000000000"), trigger)
	tmp, err := os.CreateTemp(f.dir, ".flight-*.tmp")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(f.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	f.dumps.Add(1)
	return nil
}

// Dumps reports how many bundles have been written (0 on nil).
func (f *FlightRecorder) Dumps() int64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}

// Errors reports failed bundle writes (0 on nil).
func (f *FlightRecorder) Errors() int64 {
	if f == nil {
		return 0
	}
	return f.errs.Load()
}

// RegisterViews exposes recorder health on reg.
func (f *FlightRecorder) RegisterViews(reg *Registry) {
	if f == nil || reg == nil {
		return
	}
	reg.CounterFunc("ams_flight_dumps_total", "flight-recorder bundles written", f.Dumps)
	reg.CounterFunc("ams_flight_errors_total", "flight-recorder bundle write failures", f.Errors)
}

// Close stops the poll goroutine, waits for it to exit, and polls once
// more: an anomaly that became detectable between the last tick and
// shutdown (e.g. a shed storm in a short run) is still captured. Call
// it once, after Start; safe on nil.
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	close(f.stop)
	<-f.done
	f.poll()
	return nil
}
