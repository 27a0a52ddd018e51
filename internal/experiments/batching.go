package experiments

import (
	"context"
	"fmt"
	"strings"

	"ams/internal/core"
	"ams/internal/metrics"
	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/serve"
	"ams/internal/sim"
)

// BatchingExtResult compares the real concurrent server on one
// memory-bound hot-model trace in three modes at identical worker
// count, budget, and submission order:
//
//   - unbatched: every execution reserves its own footprint;
//   - batched: cross-item demand coalesces in the execution layer, the
//     policies unchanged — schedules stay nominal-identical, throughput
//     rises purely from memory coalescing;
//   - batched+aware: the policy additionally scores a model with live
//     batch-lane waiters at its per-item marginal cost
//     (sched.SetBatchAware), the scheduling-problem extension — it may
//     trade schedule composition for joining cheaper batches.
type BatchingExtResult struct {
	Workers     int
	DeadlineSec float64
	MemGB       float64
	BatchSize   int
	Items       int

	Modes        []string
	ThroughputHz []float64
	Recall       []float64
	P95Sec       []float64
	AvgBatch     []float64 // requests per batched execution (1 = no coalescing)
	SavedGPUMS   []float64 // GPU-ms the sub-linear batch cost avoided
}

// ExtBatching runs the cross-item batching extension on MSCOCO with the
// DuelingDQN agent driving Algorithm 1 per item. The trace is shaped to
// be memory-bound with few hot models — a budget most of the zoo does
// not fit and a short deadline that concentrates every item on the same
// top-ratio models — which is where coalescing has demand to find.
func (l *Lab) ExtBatching() BatchingExtResult {
	st := l.TestStore(DSMSCOCO)
	agent := l.Agent(rl.DuelingDQN, DSMSCOCO)
	res := BatchingExtResult{
		Workers:     8,
		DeadlineSec: 0.2,
		MemGB:       1,
		BatchSize:   8,
		Items:       3 * st.NumScenes(),
		Modes:       []string{"unbatched", "batched", "batched+aware"},
	}
	base := serve.Config{
		QueueCap:  2 * res.Workers,
		TimeScale: 0.002,
	}
	base.Workers = res.Workers
	base.DeadlineSec = res.DeadlineSec
	base.MemoryBudgetMB = res.MemGB * 1024
	for _, mode := range res.Modes {
		cfg := base
		aware := false
		switch mode {
		case "batched":
			cfg.BatchSize = res.BatchSize
			cfg.BatchHoldMS = 600
		case "batched+aware":
			cfg.BatchSize = res.BatchSize
			cfg.BatchHoldMS = 600
			aware = true
		}
		l.logf("ext-batching: %s (%d items)", mode, res.Items)
		stats := l.runBatchTrace(st, agent, cfg, aware, res.Items)
		res.ThroughputHz = append(res.ThroughputHz, stats.ThroughputHz)
		res.Recall = append(res.Recall, stats.AvgRecall)
		res.P95Sec = append(res.P95Sec, stats.P95LatencySec)
		avg := 1.0
		if stats.Batching.Batches > 0 {
			avg = float64(stats.Batching.Requests) / float64(stats.Batching.Batches)
		}
		res.AvgBatch = append(res.AvgBatch, avg)
		res.SavedGPUMS = append(res.SavedGPUMS, stats.Batching.SavedGPUMS)
	}
	return res
}

// runBatchTrace saturates one server configuration with items cycling
// the store and reduces the completed run. Each worker gets its own fork
// of the agent (real goroutines, unlike service.Run's single-threaded
// loop) behind the per-schedule prediction memo.
func (l *Lab) runBatchTrace(st *oracle.Store, agent *core.Agent, cfg serve.Config, aware bool, items int) serve.RunStats {
	cfg.StatsWindow = items
	factory := func(int) sim.Policy {
		return sched.NewCostQGreedy(sched.NewCachedPredictor(agent.Fork()), l.Zoo).SetBatchAware(aware)
	}
	srv, err := serve.New(st, factory, cfg)
	if err != nil {
		panic(err)
	}
	tickets := make([]*serve.Ticket, 0, items)
	for i := 0; i < items; i++ {
		//amsvet:allow ctxflow experiment harness drives the server to completion; no caller ctx exists
		tk, err := srv.SubmitWait(context.Background(), i%st.NumScenes(), "")
		if err != nil {
			panic(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		tk.Wait()
	}
	if err := srv.Close(); err != nil {
		panic(err)
	}
	return srv.Stats()
}

// Format renders the batching comparison, one row per metric with the
// mode index as the column axis.
func (r BatchingExtResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — cross-item dynamic batching (%d workers, %.1fs deadline, %.0fGB memory, batch %d, %d items)\n",
		r.Workers, r.DeadlineSec, r.MemGB, r.BatchSize, r.Items)
	x := make([]float64, len(r.Modes))
	for i, m := range r.Modes {
		x[i] = float64(i)
		fmt.Fprintf(&b, "mode %d: %s\n", i, m)
	}
	b.WriteString(metrics.SeriesTable("mode", x, []metrics.Series{
		{Name: "throughput/s", Y: r.ThroughputHz},
		{Name: "recall", Y: r.Recall},
		{Name: "p95 (s)", Y: r.P95Sec},
		{Name: "avg batch", Y: r.AvgBatch},
		{Name: "saved GPU-ms", Y: r.SavedGPUMS},
	}, 3))
	return b.String()
}
