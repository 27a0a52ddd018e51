package ams

// Benchmark harness: one benchmark per paper table/figure. Each bench
// regenerates its experiment through the shared Lab (datasets, stores and
// trained agents are built once and cached), so a bench iteration
// measures the experiment's evaluation work. Run with
//
//	go test -bench=. -benchmem
//
// For paper-style output series, use `go run ./cmd/amsbench -exp all`;
// serving performance is measured by the ledger, `bash bench/run.sh`.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"ams/internal/experiments"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared benchmark lab at a reduced scale so the whole
// suite completes in minutes.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		cfg := experiments.Quick()
		cfg.DatasetSize = 250
		cfg.Epochs = 6
		cfg.Hidden = []int{64}
		benchLab = experiments.NewLab(cfg)
	})
	return benchLab
}

// warm pre-trains the agents an experiment needs so the timed loop
// measures evaluation, not training.
func warm(b *testing.B, fn func(l *experiments.Lab)) *experiments.Lab {
	l := lab(b)
	fn(l)
	b.ResetTimer()
	return l
}

func BenchmarkFig1(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { _ = l.FullStore(experiments.DSMirFlickr) })
	for i := 0; i < b.N; i++ {
		r := l.Fig1()
		if r.TotalExecutions == 0 {
			b.Fatal("fig1 accounting")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { _ = l.FullStore(experiments.DSMSCOCO) })
	for i := 0; i < b.N; i++ {
		r := l.Fig2()
		if r.AvgOptimalSec >= r.AvgNoPolicySec {
			b.Fatal("fig2 ordering violated")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig4() }) // trains + caches sweeps
	for i := 0; i < b.N; i++ {
		rs := l.Fig4()
		if len(rs) != 3 {
			b.Fatal("fig4 shape")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig5() })
	for i := 0; i < b.N; i++ {
		rs := l.Fig5()
		if len(rs) != 3 {
			b.Fatal("fig5 shape")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig6() })
	for i := 0; i < b.N; i++ {
		r := l.Fig6()
		if len(r.Policies) != 4 {
			b.Fatal("fig6 shape")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig7() })
	for i := 0; i < b.N; i++ {
		if len(l.Fig7().Steps) == 0 {
			b.Fatal("empty sequence")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig8() })
	for i := 0; i < b.N; i++ {
		r := l.Fig8()
		if len(r.Names) != 4 {
			b.Fatal("fig8 shape")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig9() })
	for i := 0; i < b.N; i++ {
		r := l.Fig9()
		if len(r.Algos) != 4 {
			b.Fatal("fig9 shape")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig10() })
	for i := 0; i < b.N; i++ {
		rs := l.Fig10()
		if len(rs) != 3 {
			b.Fatal("fig10 shape")
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig11() })
	for i := 0; i < b.N; i++ {
		rs := l.Fig11()
		if len(rs) == 0 {
			b.Fatal("fig11 shape")
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Fig12() })
	for i := 0; i < b.N; i++ {
		r := l.Fig12()
		if len(r.Recall) != 2 {
			b.Fatal("fig12 shape")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.TableIII() })
	for i := 0; i < b.N; i++ {
		r := l.TableIII()
		if r.SelectionMS <= 0 {
			b.Fatal("table3 overhead")
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.Headline() })
	for i := 0; i < b.N; i++ {
		h := l.Headline()
		if h.SavedAtFullRecall <= 0 {
			b.Fatal("no savings")
		}
	}
}

func BenchmarkAblationEND(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := l.AblationEND()
		if len(r.RewardWithEnd) == 0 {
			b.Fatal("ablation shape")
		}
	}
}

func BenchmarkAblationGamma(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := l.AblationGamma()
		if len(r.Gammas) == 0 {
			b.Fatal("ablation shape")
		}
	}
}

func BenchmarkAblationReward(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := l.AblationReward()
		if len(r.Shapes) != 3 {
			b.Fatal("ablation shape")
		}
	}
}

func BenchmarkExtGraph(b *testing.B) {
	l := warm(b, func(l *experiments.Lab) { l.ExtGraph() })
	for i := 0; i < b.N; i++ {
		r := l.ExtGraph()
		if len(r.Sweep.Policies) != 4 {
			b.Fatal("graph shape")
		}
	}
}

// --- Micro benchmarks of the core primitives -----------------------------

// BenchmarkAgentSelection measures the Table III row directly: one agent
// value prediction (the per-iteration scheduling overhead).
func BenchmarkAgentSelection(b *testing.B) {
	sys, err := New(Config{NumImages: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	agent, err := sys.TrainAgent(TrainOptions{Algorithm: DuelingDQN, Epochs: 1, Hidden: []int{256}})
	if err != nil {
		b.Fatal(err)
	}
	state := []int{3, 99, 450, 801, 1100}
	_ = agent.PredictValues(state) // the first prediction freezes the network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = agent.PredictValues(state)
	}
}

// BenchmarkLabelDeadline measures one Algorithm 1 scheduling episode.
func BenchmarkLabelDeadline(b *testing.B) {
	sys, err := New(Config{NumImages: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	agent, err := sys.TrainAgent(TrainOptions{Algorithm: DuelingDQN, Epochs: 2, Hidden: []int{64}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Label(context.Background(), agent, sys.TestItem(i%sys.NumTestImages()), Budget{DeadlineSec: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelMemory measures one Algorithm 2 parallel episode.
func BenchmarkLabelMemory(b *testing.B) {
	sys, err := New(Config{NumImages: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	agent, err := sys.TrainAgent(TrainOptions{Algorithm: DuelingDQN, Epochs: 2, Hidden: []int{64}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Label(context.Background(), agent, sys.TestItem(i%sys.NumTestImages()),
			Budget{DeadlineSec: 1, MemoryGB: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Server hot path ------------------------------------------------------

var (
	serveBenchOnce  sync.Once
	serveBenchSys   *System
	serveBenchAgent *Agent
)

// serveBench builds the shared system and agent for the server
// benchmarks once.
func serveBench(b *testing.B) (*System, *Agent) {
	b.Helper()
	serveBenchOnce.Do(func() {
		sys, err := New(Config{NumImages: 60, Seed: 1})
		if err != nil {
			panic(err)
		}
		agent, err := sys.TrainAgent(TrainOptions{
			Algorithm: DuelingDQN, Epochs: 2, Hidden: []int{64},
		})
		if err != nil {
			panic(err)
		}
		serveBenchSys, serveBenchAgent = sys, agent
	})
	return serveBenchSys, serveBenchAgent
}

// benchmarkServeTelemetry measures submit→complete round trips under
// concurrent clients with near-zero model sleeps (TimeScale 1e-6), with
// the telemetry switch exposed — the one serving measurement the ledger
// has no workload pair for. The Uninstrumented/Instrumented pair shows
// what the obs layer costs per item; the bound on that cost is a count,
// not this pair's wall-clock ratio: TestTelemetryAllocationOverhead.
// ReportAllocs shows the disabled path's allocation profile (every obs
// call no-ops on nil before touching a clock or the heap).
func benchmarkServeTelemetry(b *testing.B, telemetry bool) {
	sys, agent := serveBench(b)
	srv, err := sys.NewServer(agent, ServeConfig{
		Workers:     4,
		DeadlineSec: 0.5,
		MemoryGB:    16,
		QueueCap:    16,
		TimeScale:   1e-6,
		Telemetry:   telemetry,
	})
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			img := int(next.Add(1)) % sys.NumTestImages()
			tk, err := srv.SubmitWait(context.Background(), sys.TestItem(img))
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tk.Wait(context.Background()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	if telemetry {
		if st := srv.Stats(); len(st.Telemetry) == 0 {
			b.Fatal("instrumented run produced no telemetry")
		}
	}
}

func BenchmarkServeUninstrumented(b *testing.B) { benchmarkServeTelemetry(b, false) }
func BenchmarkServeInstrumented(b *testing.B)   { benchmarkServeTelemetry(b, true) }

// BenchmarkTrainEpoch measures one DRL training epoch.
func BenchmarkTrainEpoch(b *testing.B) {
	sys, err := New(Config{NumImages: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TrainAgent(TrainOptions{
			Algorithm: DQN, Epochs: 1, Hidden: []int{64}, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
