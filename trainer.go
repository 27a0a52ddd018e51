package ams

import (
	"fmt"
	"math"
	"slices"

	"ams/internal/core"
	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/synth"
)

// Trainer supports incremental (continual) agent training: train some
// epochs, snapshot an agent, keep training — possibly against data from a
// different distribution (online adaptation to drifting streams).
type Trainer struct {
	sys   *System
	inner *core.Trainer
}

// NewTrainer creates an incremental trainer with the given options.
func (s *System) NewTrainer(opts TrainOptions) (*Trainer, error) {
	cfg, err := s.trainConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Trainer{sys: s, inner: core.NewTrainer(len(s.Zoo.Models), cfg)}, nil
}

// TrainEpochs runs additional passes over the system's training split.
func (t *Trainer) TrainEpochs(epochs int) {
	t.inner.TrainEpochs(t.sys.trainStore, epochs)
}

// TrainEpochsOn runs additional passes over freshly generated scenes from
// another dataset profile — continual adaptation to new content.
func (t *Trainer) TrainEpochsOn(dataset string, numImages, epochs int, seed uint64) error {
	profile, err := synth.ProfileByName(dataset)
	if err != nil {
		return fmt.Errorf("ams: %w", err)
	}
	if numImages < 1 {
		return fmt.Errorf("ams: numImages must be positive")
	}
	ds := synth.NewDataset(t.sys.Vocabulary, profile, numImages, seed^0x6a09e667f3bcc909)
	store := oracle.Build(t.sys.Zoo, ds.Scenes)
	t.inner.TrainEpochs(store, epochs)
	return nil
}

// Steps returns the number of environment steps taken so far.
func (t *Trainer) Steps() int { return t.inner.GlobalStep() }

// Snapshot returns an independent agent capturing the current policy.
func (t *Trainer) Snapshot() *Agent { return &Agent{inner: t.inner.Agent()} }

// trainConfig validates opts and converts them into the training
// configuration; TrainAgent and NewTrainer both start here.
func (s *System) trainConfig(opts TrainOptions) (core.TrainConfig, error) {
	if !slices.Contains(rl.Algorithms(), opts.Algorithm) {
		return core.TrainConfig{}, fmt.Errorf("ams: unknown algorithm %v", opts.Algorithm)
	}
	if opts.Epochs < 0 {
		return core.TrainConfig{}, fmt.Errorf("ams: negative epochs %d", opts.Epochs)
	}
	for _, w := range opts.Hidden {
		if w <= 0 {
			return core.TrainConfig{}, fmt.Errorf("ams: hidden widths must be positive, got %v", opts.Hidden)
		}
	}
	var theta []float64 // nil: every model has priority 1
	if len(opts.Priorities) > 0 {
		theta = make([]float64, len(s.Zoo.Models))
		for i := range theta {
			theta[i] = 1
		}
	}
	for name, th := range opts.Priorities {
		m, ok := s.Zoo.ByName(name)
		if !ok {
			return core.TrainConfig{}, fmt.Errorf("ams: unknown model %q in Priorities", name)
		}
		if !(th > 0) || math.IsInf(th, 1) {
			return core.TrainConfig{}, fmt.Errorf("ams: priority for %q must be positive and finite, got %v", name, th)
		}
		theta[m.ID] = th
	}
	return core.TrainConfig{
		Algo:     opts.Algorithm,
		Epochs:   opts.Epochs,
		Hidden:   opts.Hidden,
		Theta:    theta,
		Seed:     opts.Seed,
		Dataset:  s.cfg.Dataset,
		Progress: opts.Progress,
	}, nil
}
