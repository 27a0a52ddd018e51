// Package rl provides the reinforcement-learning machinery of the AMS
// reproduction: experience transitions, a ring replay buffer, epsilon
// schedules, and Q-learning trainers for the four algorithm variants the
// paper evaluates (DQN, DoubleDQN, DuelingDQN, DeepSARSA).
//
// The package is environment-agnostic: states are sparse index sets, and
// the training driver in internal/core supplies transitions drawn from the
// labeling environment.
package rl

import (
	"ams/internal/tensor"
)

// Transition is one (s, a, r, s') experience. States are sparse sets of
// active label indices. NextAction is the on-policy follow-up action and
// is only consulted by DeepSARSA.
type Transition struct {
	State      []int
	Action     int
	Reward     float64
	Next       []int
	NextAction int
	Done       bool
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with uniform
// random sampling.
type ReplayBuffer struct {
	data []Transition
	pos  int
	full bool
	rng  *tensor.RNG
}

// NewReplayBuffer returns a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int, rng *tensor.RNG) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay buffer capacity must be positive")
	}
	return &ReplayBuffer{data: make([]Transition, 0, capacity), rng: rng}
}

// Add stores a transition, evicting the oldest when full. The transition's
// state slices are copied so callers may reuse their buffers.
func (b *ReplayBuffer) Add(tr Transition) {
	tr.State = append([]int(nil), tr.State...)
	tr.Next = append([]int(nil), tr.Next...)
	if len(b.data) < cap(b.data) {
		b.data = append(b.data, tr)
		return
	}
	b.data[b.pos] = tr
	b.pos = (b.pos + 1) % cap(b.data)
	b.full = true
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return len(b.data) }

// SampleInto fills dst with uniformly sampled transitions (with
// replacement) and returns dst[:n] where n = min(len(dst), Len). An empty
// buffer yields an empty slice.
func (b *ReplayBuffer) SampleInto(dst []Transition) []Transition {
	if len(b.data) == 0 {
		return dst[:0]
	}
	n := len(dst)
	for i := 0; i < n; i++ {
		dst[i] = b.data[b.rng.Intn(len(b.data))]
	}
	return dst[:n]
}

// EpsilonSchedule linearly anneals exploration from Start to End over
// DecaySteps environment steps, then stays at End.
type EpsilonSchedule struct {
	Start      float64
	End        float64
	DecaySteps int
}

// At returns the epsilon for the given global step.
func (s EpsilonSchedule) At(step int) float64 {
	if s.DecaySteps <= 0 || step >= s.DecaySteps {
		return s.End
	}
	if step < 0 {
		step = 0
	}
	frac := float64(step) / float64(s.DecaySteps)
	return s.Start + float64((s.End-s.Start)*frac)
}
