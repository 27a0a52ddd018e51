// Package ams is the public API of the Adaptive Model Scheduling library,
// a reproduction of "Comprehensive and Efficient Data Labeling via
// Adaptive Model Scheduling" (Yuan, Zhang, Li, Xiong — ICDE 2020).
//
// Given a stream of data items and a zoo of heavyweight labeling models,
// the framework (1) trains a deep-reinforcement-learning agent that
// predicts which unexecuted models will still produce valuable labels
// from the set of labels seen so far, and (2) schedules model executions
// under a per-item deadline (Algorithm 1) or joint deadline + GPU-memory
// budget (Algorithm 2) to maximize the total value of emitted labels.
//
// A typical session:
//
//	sys, err := ams.New(ams.Config{Dataset: ams.DatasetMSCOCO, NumImages: 1000})
//	agent, err := sys.TrainAgent(ams.TrainOptions{Algorithm: ams.DuelingDQN})
//	res, err := sys.Label(ctx, agent, sys.TestItem(0), ams.Budget{DeadlineSec: 0.5})
//	for _, l := range res.Labels { fmt.Println(l.Name, l.Confidence) }
//
// Labeling surfaces take Items: TestItem references the built-in
// held-out split (precomputed ground truth, Result.Recall reported),
// while ComposeItem and GenerateItems ingest external content the
// oracle has never seen — models run on demand, memoized per item, and
// results report labels, models run, and time (HasRecall is false).
// Contexts cancel mid-schedule, returning the partial labels.
//
// Scheduling policies are first-class: Label uses DefaultPolicy for the
// budget shape, while LabelWith, LabelBatchWith and ServeConfig.Policy
// accept any registry policy (PolicyByName: "algorithm1", "algorithm2",
// "qgreedy", "random"). All of them implement one constraint-carrying
// contract, so the same policy runs under the serial, deadline,
// parallel, and real-server executors alike.
//
// The model zoo and datasets are the library's built-in simulation
// substrate: thirty models across ten visual tasks whose time/memory
// costs and content-dependent outputs mirror the paper's deployment (see
// DESIGN.md for the substitution rationale and the policy architecture).
package ams

import (
	"fmt"
	"math"
	"slices"

	"ams/internal/core"
	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// Algorithm selects the DRL training variant.
type Algorithm = rl.Algorithm

// The four supported training algorithms.
const (
	DQN        = rl.DQN
	DoubleDQN  = rl.DoubleDQN
	DuelingDQN = rl.DuelingDQN
	DeepSARSA  = rl.DeepSARSA
)

// Built-in dataset profiles.
const (
	DatasetMSCOCO    = "MSCOCO2017"
	DatasetPlaces    = "Places365"
	DatasetMirFlickr = "MirFlickr25"
	DatasetStanford  = "Stanford40"
	DatasetVOC       = "VOC2012"
)

// Datasets lists the built-in dataset profile names.
func Datasets() []string {
	return []string{DatasetMSCOCO, DatasetPlaces, DatasetMirFlickr,
		DatasetStanford, DatasetVOC}
}

// Config describes a System: which synthetic dataset to generate. It is
// split 1:4 into training and held-out images, as in the paper.
type Config struct {
	Dataset   string // profile name; see Datasets()
	NumImages int    // images to generate (default 1000)
	Seed      uint64 // determinism seed
}

// System owns the vocabulary, the model zoo, one generated dataset and
// its precomputed ground truth. It is not safe for concurrent use.
type System struct {
	cfg        Config
	Vocabulary *labels.Vocabulary
	Zoo        *zoo.Zoo
	Dataset    *synth.Dataset

	trainStore *oracle.Store
	testStore  *oracle.Store
}

// New generates the dataset and precomputes every model's output on every
// image (the framework's training/evaluation ground truth).
func New(cfg Config) (*System, error) {
	if cfg.Dataset == "" {
		cfg.Dataset = DatasetMSCOCO
	}
	if cfg.NumImages == 0 {
		cfg.NumImages = 1000
	}
	if cfg.NumImages < 10 {
		return nil, fmt.Errorf("ams: NumImages must be at least 10, got %d", cfg.NumImages)
	}
	profile, err := synth.ProfileByName(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	vocab := labels.NewVocabulary()
	z := zoo.NewZoo(vocab)
	ds := synth.NewDataset(vocab, profile, cfg.NumImages, cfg.Seed^0x5bd1e995)
	trainScenes, testScenes := ds.Split(synth.TrainFrac)
	return &System{
		cfg:        cfg,
		Vocabulary: vocab,
		Zoo:        z,
		Dataset:    ds,
		trainStore: oracle.Build(z, trainScenes),
		testStore:  oracle.Build(z, testScenes),
	}, nil
}

// NumTestImages returns the number of held-out images available to Label.
func (s *System) NumTestImages() int { return s.testStore.NumScenes() }

// NumTrainImages returns the number of training images.
func (s *System) NumTrainImages() int { return s.trainStore.NumScenes() }

// ModelNames lists the zoo's model names in scheduling-action order.
func (s *System) ModelNames() []string {
	names := make([]string, len(s.Zoo.Models))
	for i, m := range s.Zoo.Models {
		names[i] = m.Name
	}
	return names
}

// NoPolicyTimeSec returns the per-image cost of executing every model —
// the paper's "no policy" baseline (≈5.16 s).
func (s *System) NoPolicyTimeSec() float64 { return s.Zoo.TotalTimeMS() / 1000 }

// TrainOptions tunes agent training.
type TrainOptions struct {
	Algorithm Algorithm
	Epochs    int   // default 10
	Hidden    []int // default {256}, the paper's Q-network

	// Priorities maps model names to their theta parameter (§IV-A): a
	// model with theta > 1 earns proportionally higher reward, pulling it
	// forward in the schedule. Unlisted models default to 1.
	Priorities map[string]float64

	Seed uint64

	// Progress, when non-nil, receives per-epoch training statistics.
	Progress func(epoch int, meanLoss, meanReward float64)
}

// TrainAgent trains a model-value prediction agent on the system's
// training split.
func (s *System) TrainAgent(opts TrainOptions) (*Agent, error) {
	cfg, err := s.trainConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Agent{inner: core.Train(s.trainStore, cfg)}, nil
}

// trainConfig validates opts and converts them into the training
// configuration.
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
