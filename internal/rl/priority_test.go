package rl

import (
	"math"
	"testing"
	"testing/quick"

	"ams/internal/tensor"
)

func TestPrioritizedBufferBasics(t *testing.T) {
	b := NewPrioritizedBuffer(8, 0.6, tensor.NewRNG(1))
	if b.Len() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	for i := 0; i < 5; i++ {
		b.Add(Transition{Action: i})
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	trs, idxs := b.Sample(16)
	if len(trs) != 16 || len(idxs) != 16 {
		t.Fatalf("sample sizes %d/%d", len(trs), len(idxs))
	}
	for i, tr := range trs {
		if tr.Action < 0 || tr.Action >= 5 {
			t.Fatalf("sampled bogus transition %+v", tr)
		}
		if idxs[i] < 0 || idxs[i] >= 5 {
			t.Fatalf("sampled bogus index %d", idxs[i])
		}
	}
}

func TestPrioritizedBufferEviction(t *testing.T) {
	b := NewPrioritizedBuffer(4, 0.6, tensor.NewRNG(2))
	for i := 0; i < 10; i++ {
		b.Add(Transition{Action: i})
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", b.Len())
	}
	trs, _ := b.Sample(64)
	for _, tr := range trs {
		if tr.Action < 6 {
			t.Fatalf("evicted transition %d sampled", tr.Action)
		}
	}
}

func TestPrioritizedSamplingFollowsPriorities(t *testing.T) {
	b := NewPrioritizedBuffer(4, 1.0, tensor.NewRNG(3))
	for i := 0; i < 4; i++ {
		b.Add(Transition{Action: i})
	}
	// Give transition 2 a huge TD error, everything else tiny.
	b.UpdatePriorities([]int{0, 1, 2, 3}, []float64{0.01, 0.01, 10, 0.01})
	counts := map[int]int{}
	const n = 5000
	trs, _ := b.Sample(n)
	for _, tr := range trs {
		counts[tr.Action]++
	}
	frac := float64(counts[2]) / n
	if frac < 0.9 {
		t.Fatalf("high-priority transition sampled only %.2f of the time", frac)
	}
}

func TestPrioritizedTreeMassConsistent(t *testing.T) {
	rng := tensor.NewRNG(5)
	f := func(seed uint16) bool {
		b := NewPrioritizedBuffer(16, 0.7, tensor.NewRNG(uint64(seed)))
		for i := 0; i < 40; i++ {
			b.Add(Transition{Action: i})
			if i%3 == 0 && b.Len() > 2 {
				_, idxs := b.Sample(2)
				b.UpdatePriorities(idxs, []float64{rng.Float64() * 5, rng.Float64() * 5})
			}
		}
		// Tree root must equal the sum of the leaves.
		var leafSum float64
		for i := 16 - 1; i < 2*16-1; i++ {
			if b.tree[i] < 0 {
				return false
			}
			leafSum += b.tree[i]
		}
		return math.Abs(leafSum-b.tree[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPrioritizedZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewPrioritizedBuffer(0, 0.5, tensor.NewRNG(1))
}

func TestLearnerPrioritizedSolvesBandit(t *testing.T) {
	l := NewLearner(LearnerConfig{
		Algo:            DQN,
		StateDim:        6,
		Actions:         4,
		Hidden:          []int{16},
		Gamma:           0.9,
		LearningRate:    0.01,
		BatchSize:       8,
		ReplayCapacity:  256,
		TargetSyncEvery: 20,
		WarmupSize:      8,
		Prioritized:     true,
	}, tensor.NewRNG(7))
	if l.buf != nil {
		t.Fatal("prioritized learner exposes a uniform buffer")
	}
	for ep := 0; ep < 600; ep++ {
		a := l.SelectAction(nil, 0.3, []int{0, 1, 2, 3})
		r := 0.0
		if a == 2 {
			r = 1.0
		}
		l.Observe(Transition{Action: a, Reward: r, Done: true})
		l.TrainStep()
	}
	q := l.online.Forward(nil)
	_, best := q.Max()
	if best != 2 {
		t.Fatalf("prioritized learner failed bandit: Q=%v", q)
	}
}

func TestLearnerSoftTargetUpdates(t *testing.T) {
	l := NewLearner(LearnerConfig{
		Algo:            DQN,
		StateDim:        6,
		Actions:         4,
		Hidden:          []int{16},
		BatchSize:       8,
		WarmupSize:      8,
		TargetSyncEvery: 1 << 30, // hard sync never fires
		TargetTau:       0.05,
	}, tensor.NewRNG(9))
	for i := 0; i < 40; i++ {
		l.Observe(Transition{State: []int{i % 6}, Action: i % 4, Reward: 1, Done: true})
	}
	before := l.target.Forward([]int{0}).Clone()
	for i := 0; i < 5; i++ {
		l.TrainStep()
	}
	after := l.target.Forward([]int{0}).Clone()
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("soft updates did not move the target network")
	}
}
