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
// 0.99, threshold 0.25) — and exposes multi-window burn rates: the
// rate at which the error budget is being consumed over each window
// (burn 1.0 = exactly on budget, >1 = burning faster than the
// objective allows). The clock is pluggable (virtual or real seconds)
// so simulated runs account burn identically to real-time ones.
//
// Observe is safe for concurrent use; a nil SLO no-ops everything.
type SLO struct {
	Name         string
	ThresholdSec float64
	Target       float64

	now     func() float64 // clock in seconds; nil falls back to last observed
	good    atomic.Int64
	bad     atomic.Int64
	lastNow atomic.Uint64 // float bits of the newest Observe stamp

	mu      sync.Mutex
	windows []*burnWindow
}

// NewSLO builds an objective. now supplies the accounting clock in
// seconds (the server's virtual clock; nil freezes burn windows at the
// last observation). windowsSec lists the burn windows; empty defaults
// to the classic fast/slow pair 300 s and 3600 s. A target outside
// (0, 1) becomes 0.99.
func NewSLO(name string, thresholdSec, target float64, now func() float64, windowsSec ...float64) *SLO {
	if target <= 0 || target >= 1 {
		target = 0.99
	}
	if len(windowsSec) == 0 {
		windowsSec = []float64{300, 3600}
	}
	s := &SLO{Name: name, ThresholdSec: thresholdSec, Target: target, now: now}
	for _, w := range windowsSec {
		if w <= 0 {
			continue
		}
		s.windows = append(s.windows, &burnWindow{span: w, slotW: w / sloSlots})
	}
	return s
}

// clock returns the current accounting time in seconds.
func (s *SLO) clock() float64 {
	if s.now != nil {
		return s.now()
	}
	return bitsFloat(s.lastNow.Load())
}

// Observe classifies one latency (seconds, on the same clock family as
// ThresholdSec) as within or over the objective and credits it to
// every burn window. No-op on nil.
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
	now := s.clock()
	for {
		old := s.lastNow.Load()
		if bitsFloat(old) >= now || s.lastNow.CompareAndSwap(old, floatBits(now)) {
			break
		}
	}
	s.mu.Lock()
	for _, w := range s.windows {
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

// Windows lists the configured burn-window widths in seconds.
func (s *SLO) Windows() []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, len(s.windows))
	for i, w := range s.windows {
		out[i] = w.span
	}
	return out
}

// BurnRate reports the error-budget burn over the window of width
// windowSec: (bad fraction in window) ÷ (1 − target). 0 when the
// window is empty or unknown. A burn of 1.0 means the objective is
// being consumed exactly at budget; alerting convention fires on high
// burn in a fast window confirmed by a slower one.
func (s *SLO) BurnRate(windowSec float64) float64 {
	if s == nil {
		return 0
	}
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.windows {
		if w.span != windowSec {
			continue
		}
		epoch := int64(now / w.slotW)
		var good, bad int64
		for i := range w.slots {
			if st := w.slots[i].stamp; st > epoch-sloSlots && st <= epoch {
				good += w.slots[i].good
				bad += w.slots[i].bad
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
	for _, span := range s.Windows() {
		reg.GaugeFunc("ams_slo_burn_rate", "error-budget burn rate over the window",
			func() float64 { return s.BurnRate(span) },
			l, L("window", fmt.Sprintf("%gs", span)))
	}
}
