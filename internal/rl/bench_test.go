package rl

import (
	"slices"
	"testing"

	"ams/internal/labels"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// BenchmarkTrainStep times one optimizer update of the set-up's agent: a
// DuelingDQN over the full labeling state, one hidden layer of 256 and
// minibatches of 32, drawn from a buffer of seeded sparse transitions.
func BenchmarkTrainStep(b *testing.B) {
	l := NewLearner(LearnerConfig{
		Algo:     DuelingDQN,
		StateDim: labels.Total,
		Actions:  zoo.NumModels + 1,
		Hidden:   []int{256},
		Gamma:    0.3,
	}, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	state := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(labels.Total)
		}
		slices.Sort(s)
		return slices.Compact(s)
	}
	for range 4 * warmupSize {
		n := rng.Intn(40)
		l.Observe(Transition{
			State: state(n), Action: rng.Intn(zoo.NumModels + 1), Reward: rng.Norm(),
			Next: state(n + 5), NextAction: rng.Intn(zoo.NumModels + 1), Done: rng.Bool(0.1),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		l.TrainStep()
	}
}
