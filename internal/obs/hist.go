package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// The bucket layout: geometric, base one microsecond, doubling. Bucket
// i holds observations v (in seconds) with v <= bucketBase * 2^i; the
// final bucket catches everything larger. The span — 1 µs to ~18
// minutes — covers every latency this stack produces, from a cached
// Q-prediction lookup to a pathological fsync, at a fixed 31 atomics
// per histogram.
const (
	bucketBase  = 1e-6
	histBuckets = 31 // 30 geometric bounds + overflow
)

// bucketBound returns bucket i's inclusive upper bound in seconds
// (+Inf for the overflow bucket).
func bucketBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return bucketBase * float64(uint64(1)<<uint(i))
}

// Histogram is a concurrency-safe log-bucketed histogram of seconds.
// Observe is one atomic add on its bucket plus a CAS loop on the sum,
// and the count is the buckets' total. Count and Snapshot are
// approximate under concurrent writes — buckets are read one at a
// time — which is fine for monitoring and exact once writers quiesce.
// The zero value is ready; a nil Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram returns a fresh histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value in seconds (no-op on nil; negative, NaN
// and +Inf observations are dropped rather than corrupting the sum).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 || math.IsInf(v, 1) {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			break
		}
	}
}

// ObserveSince records the real seconds elapsed since t0 — the
// vtime-aware span helper: no-op when h is nil or t0 is the zero time
// Started hands out for disabled instruments.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// ObserveScaledSince records the span since t0 converted onto the
// simulated clock: real seconds divided by scale (the server's
// TimeScale), so a histogram of queue waits or batch holds reads in
// the same simulated seconds as ServeStats. No-op when h is nil, t0 is
// zero, or scale is not positive.
func (h *Histogram) ObserveScaledSince(t0 time.Time, scale float64) {
	if h == nil || t0.IsZero() || scale <= 0 {
		return
	}
	h.Observe(time.Since(t0).Seconds() / scale)
}

// bucketIndex maps v (seconds) to its bucket.
func bucketIndex(v float64) int {
	if v <= bucketBase {
		return 0
	}
	i := int(math.Ceil(math.Log2(v / bucketBase)))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Count returns the number of observations so far, the sum of the
// buckets (0 on nil) — cheap enough for poll-rate trigger sampling and
// scrape-time views.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     float64 // seconds
	Buckets [histBuckets]int64
	P50     float64
	P95     float64
	P99     float64
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot captures the histogram's current state with p50/p95/p99
// estimates. Quantiles resolve to the upper bound of the bucket the
// nearest-rank falls in, so for any one snapshot p50 <= p95 <= p99 by
// construction. The zero snapshot is returned for a nil histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = bitsFloat(h.sumBits.Load())
	s.P50 = quantileBound(s.Buckets[:], s.Count, 0.50)
	s.P95 = quantileBound(s.Buckets[:], s.Count, 0.95)
	s.P99 = quantileBound(s.Buckets[:], s.Count, 0.99)
	return s
}

// quantileBound returns the upper bound of the bucket containing the
// nearest-rank q-quantile (0 when empty). The overflow bucket reports
// its lower bound — the largest finite bound — rather than +Inf, so a
// dashboard never renders an infinite latency.
func quantileBound(buckets []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen >= rank {
			if i == len(buckets)-1 {
				return bucketBound(i - 1)
			}
			return bucketBound(i)
		}
	}
	return bucketBound(len(buckets) - 2)
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
