// Package service simulates a data-labeling service facing an arriving
// stream: images arrive with exponential interarrival times, wait in a
// FIFO queue, and are scheduled onto a pool of GPU workers, each of which
// labels its item by running the shared schedule executor (sim.Execute)
// on the virtual machine, in the mode and under the deadline and memory
// budget the Config carries. The simulation runs in virtual time
// (discrete events), so it measures queueing behaviour — waiting time,
// end-to-end latency, utilization, recall under load — deterministically
// and without real sleeping.
//
// This is the serving-system view of the paper's motivation ("limited
// computing resources and stringent delay" for a data stream): the same
// per-item scheduling policies, embedded in a queue.
//
// The run description (Config), worker policy wiring (PolicyFactory) and
// result reduction (Record, Summarize, Stats) live in types.go and are
// shared with internal/serve, the real concurrent server, so virtual-time
// and wall-clock runs of the same workload report comparable numbers.
package service

import (
	"fmt"
	"iter"
	"math"

	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// Run simulates the service over a collected Arrivals trace: arrival i, at
// arrivals[i] seconds, is the executor's item i mod NumItems.
func Run(ex oracle.Executor, factory PolicyFactory, cfg Config, arrivals []float64) Stats {
	if cfg.Workers <= 0 {
		panic("service: need at least one worker")
	}
	if cfg.DeadlineSec <= 0 || len(arrivals) == 0 {
		panic(fmt.Sprintf("service: invalid run of %d arrivals under %+v", len(arrivals), cfg))
	}

	policies := make([]sim.Policy, cfg.Workers)
	for w := range policies {
		policies[w] = factory(w)
	}
	workerFree := make([]float64, cfg.Workers)
	lim := cfg.Limits()

	records := make([]Record, 0, len(arrivals))
	for i, at := range arrivals {
		// Earliest available worker takes the job.
		w := 0
		for j := 1; j < cfg.Workers; j++ {
			if workerFree[j] < workerFree[w] {
				w = j
			}
		}
		start := math.Max(at, workerFree[w])
		img := i % ex.NumItems()
		// The worker is occupied for the whole makespan — not the summed
		// model time, which exceeds it when models overlapped — so that
		// is the busy time charged to utilization.
		res := sim.Execute(sim.NewVirtual(cfg.MemoryBudgetMB), ex, img, policies[w], lim)
		dur := res.MakespanMS / 1000
		workerFree[w] = start + dur
		records = append(records, Record{
			ArrivalSec: at,
			StartSec:   start,
			FinishSec:  start + dur,
			BusySec:    dur,
			Recall:     res.Recall,
			HasRecall:  res.HasRecall,
		})
	}
	return Summarize(records, cfg.Workers)
}

// Arrivals draws a Poisson arrival trace lazily: the i-th value yielded
// is item i's arrival offset in seconds, drawn when it is asked for, so
// a consumer that stops early never pays for the rest of the trace. Each
// iteration replays the same draws. Run simulates the collected trace;
// the real server paces its replay on it in scaled wall-clock time.
func Arrivals(items int, rateHz float64, seed uint64) iter.Seq[float64] {
	if items <= 0 || rateHz <= 0 {
		panic(fmt.Sprintf("service: invalid arrival trace %d items at %v Hz", items, rateHz))
	}
	return func(yield func(float64) bool) {
		rng := tensor.NewRNG(seed ^ 0x2545f4914f6cdd1d)
		t := 0.0
		for range items {
			t += expDraw(rng, rateHz)
			if !yield(t) {
				return
			}
		}
	}
}

// expDraw samples an exponential interarrival time with the given rate.
func expDraw(rng *tensor.RNG, rate float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}
