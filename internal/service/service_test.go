package service

import (
	"slices"
	"testing"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 60, 131)
	store = oracle.Build(z, ds.Scenes)
)

func randomFactory(seed uint64) PolicyFactory {
	return func(worker int) sim.Policy {
		return sched.NewRandom(z, tensor.NewRNG(seed+uint64(worker)))
	}
}

func TestRunBasicInvariants(t *testing.T) {
	s := Run(store, randomFactory(1), Config{Workers: 2, DeadlineSec: 1}, slices.Collect(Arrivals(100, 2, 1)))
	if s.Items != 100 {
		t.Fatalf("items %d", s.Items)
	}
	if s.AvgQueueWaitSec < 0 || s.AvgLatencySec < s.AvgQueueWaitSec {
		t.Fatalf("latency accounting broken: wait %v latency %v",
			s.AvgQueueWaitSec, s.AvgLatencySec)
	}
	if s.P95LatencySec < s.AvgLatencySec*0.5 {
		t.Fatalf("p95 (%v) below half the mean (%v)?", s.P95LatencySec, s.AvgLatencySec)
	}
	if s.Utilization <= 0 || s.Utilization > 1+1e-9 {
		t.Fatalf("utilization %v out of range", s.Utilization)
	}
	if s.AvgRecall <= 0 || s.AvgRecall > 1 {
		t.Fatalf("recall %v out of range", s.AvgRecall)
	}
	if s.ThroughputHz <= 0 {
		t.Fatalf("throughput %v", s.ThroughputHz)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg, arrivals := Config{Workers: 2, DeadlineSec: 0.8}, slices.Collect(Arrivals(60, 3, 7))
	a := Run(store, randomFactory(7), cfg, arrivals)
	b := Run(store, randomFactory(7), cfg, arrivals)
	if a != b {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
}

func TestMoreWorkersCutLatencyUnderLoad(t *testing.T) {
	// At an offered load beyond one worker's capacity, adding workers must
	// reduce queueing.
	arrivals := slices.Collect(Arrivals(200, 3, 3))
	s1 := Run(store, randomFactory(3), Config{Workers: 1, DeadlineSec: 1}, arrivals)
	s4 := Run(store, randomFactory(3), Config{Workers: 4, DeadlineSec: 1}, arrivals)
	if s4.AvgLatencySec >= s1.AvgLatencySec {
		t.Fatalf("4 workers (%v) not faster than 1 (%v)", s4.AvgLatencySec, s1.AvgLatencySec)
	}
	if s4.AvgQueueWaitSec >= s1.AvgQueueWaitSec {
		t.Fatalf("4 workers wait (%v) not below 1 worker (%v)",
			s4.AvgQueueWaitSec, s1.AvgQueueWaitSec)
	}
}

func TestHigherLoadRaisesWait(t *testing.T) {
	mk := func(rate float64) Stats {
		return Run(store, randomFactory(5), Config{Workers: 2, DeadlineSec: 1}, slices.Collect(Arrivals(200, rate, 5)))
	}
	light, heavy := mk(0.5), mk(6)
	if heavy.AvgQueueWaitSec <= light.AvgQueueWaitSec {
		t.Fatalf("heavy load wait (%v) not above light (%v)",
			heavy.AvgQueueWaitSec, light.AvgQueueWaitSec)
	}
}

func TestTighterDeadlineRaisesThroughputLowersRecall(t *testing.T) {
	mk := func(deadline float64) Stats {
		return Run(store, randomFactory(9), Config{Workers: 1, DeadlineSec: deadline}, slices.Collect(Arrivals(150, 10, 9)))
	}
	tight, loose := mk(0.3), mk(2.0)
	if tight.ThroughputHz <= loose.ThroughputHz {
		t.Fatalf("tight deadline throughput (%v) not above loose (%v)",
			tight.ThroughputHz, loose.ThroughputHz)
	}
	if tight.AvgRecall >= loose.AvgRecall {
		t.Fatalf("tight deadline recall (%v) not below loose (%v)",
			tight.AvgRecall, loose.AvgRecall)
	}
}

func TestConfigValidation(t *testing.T) {
	arrivals := slices.Collect(Arrivals(10, 1, 0))
	for name, run := range map[string]func(){
		"no workers":  func() { Run(store, randomFactory(1), Config{DeadlineSec: 1}, arrivals) },
		"no deadline": func() { Run(store, randomFactory(1), Config{Workers: 1}, arrivals) },
		"no arrivals": func() { Run(store, randomFactory(1), Config{Workers: 1, DeadlineSec: 1}, nil) },
		"no rate":     func() { Arrivals(10, 0, 0) },
		"no items":    func() { Arrivals(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			run()
		}()
	}
}

// TestSummarizeP95NearestRank pins the percentile definition: the
// nearest-rank P95 is the ceil(0.95n)-th smallest latency. The old
// floor-of-(n-1) indexing sat one rank low on small samples — most
// visibly at n=2, where it reported the minimum.
func TestSummarizeP95NearestRank(t *testing.T) {
	// records builds n completions with latencies 1..n seconds.
	records := func(n int) []Record {
		rs := make([]Record, n)
		for i := range rs {
			rs[i].FinishSec = float64(n - i) // unsorted on purpose
		}
		return rs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 1},      // ceil(0.95)  = rank 1
		{2, 2},      // ceil(1.9)   = rank 2: the max, never the min
		{20, 19},    // ceil(19)    = rank 19
		{100, 95},   // ceil(95)    = rank 95
		{101, 96},   // ceil(95.95) = rank 96
		{1000, 950}, // ceil(950)  = rank 950
	} {
		got := Summarize(records(tc.n), 1).P95LatencySec
		if got != tc.want {
			t.Errorf("n=%d: P95 = %v s, want rank %v", tc.n, got, tc.want)
		}
	}
}
