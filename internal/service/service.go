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
	"math"

	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// Run simulates the service over the executor's items.
func Run(ex oracle.Executor, factory PolicyFactory, cfg Config) Stats {
	if cfg.Workers <= 0 {
		panic("service: need at least one worker")
	}
	if cfg.ArrivalRateHz <= 0 || cfg.DeadlineSec <= 0 || cfg.Items <= 0 {
		panic(fmt.Sprintf("service: invalid config %+v", cfg))
	}
	arrivals := Arrivals(cfg.Items, cfg.ArrivalRateHz, cfg.Seed)

	policies := make([]sim.Policy, cfg.Workers)
	for w := range policies {
		policies[w] = factory(w)
	}
	workerFree := make([]float64, cfg.Workers)
	lim := cfg.Limits()

	records := make([]Record, 0, cfg.Items)
	for i := 0; i < cfg.Items; i++ {
		// Earliest available worker takes the job.
		w := 0
		for j := 1; j < cfg.Workers; j++ {
			if workerFree[j] < workerFree[w] {
				w = j
			}
		}
		start := math.Max(arrivals[i], workerFree[w])
		img := i % ex.NumItems()
		// The worker is occupied for the whole makespan — not the summed
		// model time, which exceeds it when models overlapped — so that
		// is the busy time charged to utilization.
		res := sim.Execute(sim.NewVirtual(cfg.MemoryBudgetMB), ex, img, policies[w], lim)
		dur := res.MakespanMS / 1000
		workerFree[w] = start + dur
		records = append(records, Record{
			ArrivalSec: arrivals[i],
			StartSec:   start,
			FinishSec:  start + dur,
			BusySec:    dur,
			Recall:     res.Recall,
			HasRecall:  res.HasRecall,
		})
	}
	return Summarize(records, cfg.Workers)
}

// Arrivals precomputes a Poisson arrival trace: item i arrives at the
// returned offset in seconds. The real server replays the same trace in
// scaled wall-clock time.
func Arrivals(items int, rateHz float64, seed uint64) []float64 {
	if items <= 0 || rateHz <= 0 {
		panic(fmt.Sprintf("service: invalid arrival trace %d items at %v Hz", items, rateHz))
	}
	rng := tensor.NewRNG(seed ^ 0x2545f4914f6cdd1d)
	arrivals := make([]float64, items)
	t := 0.0
	for i := range arrivals {
		t += expDraw(rng, rateHz)
		arrivals[i] = t
	}
	return arrivals
}

// expDraw samples an exponential interarrival time with the given rate.
func expDraw(rng *tensor.RNG, rate float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}
