package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
// condition: fires when the counter's growth rate between two polls
// exceeds perSec. The first poll only establishes the baseline.
func RateTrigger(sample func() int64, perSec float64) func() (bool, string) {
	var prev int64
	var prevAt time.Time
	return func() (bool, string) {
		now := time.Now()
		v := sample()
		if prevAt.IsZero() {
			prev, prevAt = v, now
			return false, ""
		}
		dt := now.Sub(prevAt).Seconds()
		delta := v - prev
		prev, prevAt = v, now
		if dt <= 0 || delta <= 0 {
			return false, ""
		}
		rate := float64(delta) / dt
		if rate > perSec {
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

// FlightRecorder polls a set of anomaly triggers against live
// telemetry and, when one fires, atomically writes a timestamped JSON
// FlightBundle (recent trace ring + registry snapshot) into its
// directory — a pre-anomaly black box. Dumps are rate-limited by a
// cooldown so a sustained incident produces a bounded series of
// bundles, not one per poll. A nil recorder no-ops everything; Close
// waits for the poll goroutine so servers embedding one stay leak-test
// clean.
type FlightRecorder struct {
	dir      string
	reg      *Registry
	tr       *Tracer
	interval time.Duration
	cooldown time.Duration
	traceN   int

	mu       sync.Mutex
	triggers []Trigger
	lastDump time.Time

	dumps atomic.Int64
	errs  atomic.Int64

	startMu  sync.Mutex
	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewFlightRecorder builds a recorder writing bundles under dir.
// Defaults: 250 ms poll, 5 s cooldown, 64 traces per bundle.
func NewFlightRecorder(dir string, reg *Registry, tr *Tracer) *FlightRecorder {
	return &FlightRecorder{
		dir:      dir,
		reg:      reg,
		tr:       tr,
		interval: 250 * time.Millisecond,
		cooldown: 5 * time.Second,
		traceN:   64,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// AddTrigger registers one named anomaly detector. Safe before or
// after Start; no-op on nil.
func (f *FlightRecorder) AddTrigger(name string, fire func() (bool, string)) {
	if f == nil || fire == nil {
		return
	}
	f.mu.Lock()
	f.triggers = append(f.triggers, Trigger{Name: name, Fire: fire})
	f.mu.Unlock()
}

// Start launches the poll goroutine (idempotent, no-op on nil).
func (f *FlightRecorder) Start() {
	if f == nil {
		return
	}
	f.startMu.Lock()
	defer f.startMu.Unlock()
	if f.started {
		return
	}
	f.started = true
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
// suppresses dumps.
func (f *FlightRecorder) poll() {
	f.mu.Lock()
	trigs := make([]Trigger, len(f.triggers))
	copy(trigs, f.triggers)
	last := f.lastDump
	f.mu.Unlock()
	cool := !last.IsZero() && time.Since(last) < f.cooldown
	for _, tg := range trigs {
		fired, detail := tg.Fire()
		if !fired || cool {
			continue
		}
		cool = true // one bundle per poll at most
		if _, err := f.Snapshot(tg.Name, detail); err != nil {
			f.errs.Add(1)
		}
	}
}

// Snapshot writes one bundle immediately (also the manual seam tests
// and operators use), returning the bundle path. The write is atomic:
// a temp file in dir renamed into place, so a reader never sees a torn
// bundle. Resets the cooldown clock.
func (f *FlightRecorder) Snapshot(trigger, detail string) (string, error) {
	if f == nil {
		return "", nil
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	now := time.Now()
	b := FlightBundle{
		Trigger:  trigger,
		Detail:   detail,
		WallTime: now.Format(time.RFC3339Nano),
		UnixUS:   now.UnixMicro(),
		Metrics:  f.reg.Snapshot(),
		Traces:   f.tr.Recent(f.traceN),
	}
	if b.Metrics == nil {
		b.Metrics = []Metric{}
	}
	if b.Traces == nil {
		b.Traces = []ItemTrace{}
	}
	name := fmt.Sprintf("flight-%s-%s.json", now.UTC().Format("20060102T150405.000000000"), trigger)
	final := filepath.Join(f.dir, name)
	tmp, err := os.CreateTemp(f.dir, ".flight-*.tmp")
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	f.dumps.Add(1)
	f.mu.Lock()
	f.lastDump = now
	f.mu.Unlock()
	return final, nil
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

// Close stops polling and waits for the goroutine to exit. Safe on nil
// and idempotent; a recorder that was never Started closes cleanly.
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	f.stopOnce.Do(func() { close(f.stop) })
	f.startMu.Lock()
	started := f.started
	f.started = true // a Start after Close must not relaunch the goroutine
	f.startMu.Unlock()
	if started {
		<-f.done
		// One final evaluation after the loop exits: an anomaly that
		// became detectable between the last tick and shutdown (e.g. a
		// shed storm in a short run) is still captured.
		f.poll()
	}
	return nil
}
