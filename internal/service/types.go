package service

import (
	"math"
	"sort"

	"ams/internal/sim"
)

// The types in this file are shared between the two serving subsystems:
// the virtual-time discrete-event simulation in this package and the real
// goroutine-based server in internal/serve. Both describe a run with the
// same Config, drive workers through the same PolicyFactory, and reduce
// per-item completion Records to the same Stats, so a simulated run and a
// real run of the same workload can be compared field by field.

// Config parameterizes one service run; the arrival trace is Run's
// own argument.
type Config struct {
	Workers     int     // parallel executors (GPUs)
	DeadlineSec float64 // per-item scheduling budget

	// MemoryBudgetMB, when positive, is the GPU memory budget. The real
	// server shares it across ALL workers: the sum of in-flight model
	// footprints never exceeds it, and policies see the live availability
	// through sim.Constraints, so a model that cannot fit — including one
	// bigger than the whole budget — is skipped by the policy while the
	// rest of the item's schedule continues. The virtual-time sim gives
	// each item the whole budget (it models no cross-item contention).
	// Zero disables the memory constraint.
	MemoryBudgetMB float64

	// ItemParallel, when set, runs each item's schedule as Algorithm 2:
	// the policy's selections launch concurrently, bounded by the memory
	// budget (which it therefore requires) instead of one at a time, and
	// completions commit in nominal-finish order.
	ItemParallel bool
}

// Limits is the per-item schedule bound the configuration describes:
// the deadline, and one model in flight unless ItemParallel.
func (c Config) Limits() sim.Limits {
	lim := sim.Limits{DeadlineMS: float64(c.DeadlineSec * 1000), InFlight: 1}
	if c.ItemParallel {
		lim.InFlight = 0
	}
	return lim
}

// Stats summarizes a run.
type Stats struct {
	Items           int
	AvgQueueWaitSec float64 // arrival -> execution start
	AvgLatencySec   float64 // arrival -> completion
	P95LatencySec   float64
	AvgRecall       float64 // over items with known ground truth only
	RecallItems     int     // items AvgRecall averaged over
	ThroughputHz    float64 // completions per simulated second
	Utilization     float64 // busy worker-time / (workers * horizon)
	HorizonSec      float64 // completion time of the last item
	AvgSelectSec    float64 // real seconds of policy selection per item (0 in the virtual-time sim)
}

// PolicyFactory builds one scheduling policy per worker. Policies are
// not shared across workers so stateful implementations stay correct.
type PolicyFactory func(worker int) sim.Policy

// Record is one completed item, all times in seconds on a common clock
// (virtual seconds for the sim, scaled wall-clock for the real server).
type Record struct {
	ArrivalSec float64 // when the item entered the system
	StartSec   float64 // when a worker began executing models for it
	FinishSec  float64 // when its schedule completed
	BusySec    float64 // model execution time charged to the worker
	Recall     float64 // fraction of the item's valuable value recalled
	HasRecall  bool    // whether the item's ground truth (and so Recall) is known

	// SelectSec is the real (unscaled) wall-clock time the worker spent
	// inside policy.Next for this item — the paper's Table III selection
	// overhead, dominated by Q-network forward passes. The virtual-time
	// sim leaves it zero.
	SelectSec float64
}

// Summarize reduces completion records to run statistics. It is the
// single aggregation path for both serving subsystems.
func Summarize(records []Record, workers int) Stats {
	var stats Stats
	stats.Items = len(records)
	if stats.Items == 0 {
		return stats
	}
	latencies := make([]float64, 0, len(records))
	var busy float64
	for _, r := range records {
		stats.AvgQueueWaitSec += r.StartSec - r.ArrivalSec
		lat := r.FinishSec - r.ArrivalSec
		stats.AvgLatencySec += lat
		latencies = append(latencies, lat)
		if r.HasRecall {
			stats.AvgRecall += r.Recall
			stats.RecallItems++
		}
		stats.AvgSelectSec += r.SelectSec
		busy += r.BusySec
		if r.FinishSec > stats.HorizonSec {
			stats.HorizonSec = r.FinishSec
		}
	}
	n := float64(stats.Items)
	stats.AvgQueueWaitSec /= n
	stats.AvgLatencySec /= n
	// Recall averages only over items whose ground truth is known:
	// externally ingested items have none, and folding zeros in would
	// poison the metric.
	if stats.RecallItems > 0 {
		stats.AvgRecall /= float64(stats.RecallItems)
	}
	stats.AvgSelectSec /= n
	sort.Float64s(latencies)
	// Nearest-rank P95: the smallest latency with at least 95% of the
	// sample at or below it, ceil(0.95n) in rank (1-based). The previous
	// floor-of-interpolated-index form sat a full rank low on small
	// samples — at n=2 it reported the minimum as the "P95".
	rank := int(math.Ceil(0.95 * float64(len(latencies))))
	stats.P95LatencySec = latencies[rank-1]
	if stats.HorizonSec > 0 {
		stats.ThroughputHz = n / stats.HorizonSec
		stats.Utilization = busy / (float64(workers) * stats.HorizonSec)
	}
	return stats
}

// SummarizeWindow is Summarize for a server that retains only its most
// recent records: once completed exceeds them the ring has wrapped, and
// Summarize's throughput/utilization denominator (the horizon since
// server start) would decay toward zero as old records drop, so both are
// re-derived over the retained window's own span.
func SummarizeWindow(records []Record, workers int, completed int64) Stats {
	stats := Summarize(records, workers)
	if completed <= int64(stats.Items) || stats.Items == 0 {
		return stats
	}
	minArr, maxFin := records[0].ArrivalSec, records[0].FinishSec
	var busy float64
	for _, r := range records {
		minArr = math.Min(minArr, r.ArrivalSec)
		maxFin = math.Max(maxFin, r.FinishSec)
		busy += r.BusySec
	}
	if span := maxFin - minArr; span > 0 {
		stats.ThroughputHz = float64(stats.Items) / span
		stats.Utilization = busy / (float64(workers) * span)
	}
	return stats
}
