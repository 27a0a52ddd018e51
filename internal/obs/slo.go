package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// sloSlots is the per-window slot count: each burn window is a ring of
// sloSlots buckets, so a 300 s window resolves burn at ~9 s
// granularity without storing per-observation state.
const sloSlots = 32

// FastBurnSec and SlowBurnSec are the two burn windows every objective
// keeps, in seconds of its clock: the classic fast/slow pair, a fast
// window to page on and a slow one to confirm it.
const (
	FastBurnSec = 300
	SlowBurnSec = 3600
)

// sloSlot is one time bucket of a burn window; stamp is the slot epoch
// (floor(now / slotWidth)) so stale slots age out lazily.
type sloSlot struct {
	stamp int64
	good  int64
	bad   int64
}

// burnWindow is one rolling window of good/bad counts.
type burnWindow struct {
	span  float64 // window width in clock seconds
	slotW float64 // span / sloSlots
	slots [sloSlots]sloSlot
}

// SLO tracks one named latency objective — "target fraction of items
// complete within ThresholdSec" (so a p99 < 250 ms objective is target
// 0.99, threshold 0.25) — and exposes burn rates over its fast and slow
// windows: the rate at which the error budget is being consumed (burn
// 1.0 = exactly on budget, >1 = burning faster than the objective
// allows). The windows advance on the clock the SLO is built with (the
// server's virtual seconds), so simulated runs account burn identically
// to real-time ones.
//
// Observe is safe for concurrent use; a nil SLO no-ops everything.
type SLO struct {
	Name         string
	ThresholdSec float64
	Target       float64

	now  func() float64 // clock in seconds
	good atomic.Int64
	bad  atomic.Int64

	mu      sync.Mutex
	windows [2]burnWindow
}

// NewSLO builds an objective with target in (0, 1), accounting burn on
// now, the clock in seconds (the server's virtual clock).
func NewSLO(name string, thresholdSec, target float64, now func() float64) *SLO {
	s := &SLO{Name: name, ThresholdSec: thresholdSec, Target: target, now: now}
	for i, w := range [...]float64{FastBurnSec, SlowBurnSec} {
		s.windows[i] = burnWindow{span: w, slotW: w / sloSlots}
	}
	return s
}

// Observe classifies one latency (seconds, on the same clock family as
// ThresholdSec) as within or over the objective and credits it to
// both burn windows. No-op on nil.
func (s *SLO) Observe(latencySec float64) {
	if s == nil {
		return
	}
	ok := latencySec <= s.ThresholdSec
	if ok {
		s.good.Add(1)
	} else {
		s.bad.Add(1)
	}
	now := s.now()
	s.mu.Lock()
	for i := range s.windows {
		w := &s.windows[i]
		epoch := int64(now / w.slotW)
		sl := &w.slots[((epoch%sloSlots)+sloSlots)%sloSlots]
		if sl.stamp != epoch {
			sl.stamp, sl.good, sl.bad = epoch, 0, 0
		}
		if ok {
			sl.good++
		} else {
			sl.bad++
		}
	}
	s.mu.Unlock()
}

// Good and Bad report lifetime counts (0 on nil).
func (s *SLO) Good() int64 {
	if s == nil {
		return 0
	}
	return s.good.Load()
}

// Bad reports lifetime objective misses (0 on nil).
func (s *SLO) Bad() int64 {
	if s == nil {
		return 0
	}
	return s.bad.Load()
}

// BurnRate reports the error-budget burn over the window of width
// windowSec (FastBurnSec or SlowBurnSec): (bad fraction in window) ÷
// (1 − target). 0 when the window is empty or unknown. A burn of 1.0
// means the objective is being consumed exactly at budget; alerting
// convention fires on high burn in the fast window confirmed by the
// slow one.
func (s *SLO) BurnRate(windowSec float64) float64 {
	if s == nil {
		return 0
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.windows {
		w := &s.windows[i]
		if w.span != windowSec {
			continue
		}
		epoch := int64(now / w.slotW)
		var good, bad int64
		for _, sl := range w.slots {
			if sl.stamp > epoch-sloSlots && sl.stamp <= epoch {
				good += sl.good
				bad += sl.bad
			}
		}
		if good+bad == 0 {
			return 0
		}
		badFrac := float64(bad) / float64(good+bad)
		return badFrac / (1 - s.Target)
	}
	return 0
}

// RegisterViews exposes the objective on reg as the ams_slo_* family:
// lifetime good/bad counters, the threshold and target constants, and
// one burn-rate gauge per window. No-op when either side is nil.
func (s *SLO) RegisterViews(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	l := L("slo", s.Name)
	reg.CounterFunc("ams_slo_good_total", "items within the SLO threshold", s.Good, l)
	reg.CounterFunc("ams_slo_bad_total", "items over the SLO threshold", s.Bad, l)
	reg.GaugeFunc("ams_slo_threshold_seconds", "SLO latency threshold",
		func() float64 { return s.ThresholdSec }, l)
	reg.GaugeFunc("ams_slo_target", "SLO good-fraction target",
		func() float64 { return s.Target }, l)
	for i := range s.windows {
		span := s.windows[i].span
		reg.GaugeFunc("ams_slo_burn_rate", "error-budget burn rate over the window",
			func() float64 { return s.BurnRate(span) },
			l, L("window", fmt.Sprintf("%gs", span)))
	}
}
