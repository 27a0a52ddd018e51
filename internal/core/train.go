package core

import (
	"fmt"
	"math"
	"slices"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// TrainConfig configures DRL agent training.
type TrainConfig struct {
	Algo   rl.Algorithm
	Epochs int   // passes over the training scenes
	Hidden []int // Q-network hidden widths; the paper uses {256}

	Gamma float64

	// Theta holds the per-model priority parameters θ_m of Eq. 3 (§IV-A).
	// Nil means every model has priority 1.
	Theta []float64

	// DisableEnd removes the END action from training episodes; episodes
	// then only terminate when every model has executed. The paper adds
	// END precisely because its absence slows convergence (§IV-B) — this
	// switch exists for that ablation.
	DisableEnd bool

	// Shape selects the positive-reward smoothing; RewardLog is the
	// paper's choice (§IV-A also reports that other smoothings such as
	// the per-label average behave similarly).
	Shape RewardShape

	Seed    uint64
	Dataset string // recorded on the trained agent

	// Progress, when non-nil, receives (epoch, meanLoss, meanReward) after
	// every epoch.
	Progress func(epoch int, meanLoss, meanReward float64)
}

// withDefaults fills unset fields.
func (c TrainConfig) withDefaults(numModels int) TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Gamma == 0 {
		// A small discount keeps Q(s,m) close to the model's immediate
		// profit, which is the quantity Algorithm 1's Q/time density (and
		// Algorithm 2's Q/(time*mem)) needs. Large discounts fold the
		// shared future return into every action and flatten the ranking.
		c.Gamma = 0.3
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{256}
	}
	if c.Theta == nil {
		c.Theta = make([]float64, numModels)
		for i := range c.Theta {
			c.Theta[i] = 1
		}
	}
	return c
}

// Every agent takes one optimizer step per trainEvery environment steps
// and explores ε-greedily, ε annealed from 1 to 0.05 over the first
// 20 000 steps.
const trainEvery = 2

var explore = rl.EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 20000}

// RewardShape selects how the positive reward grows with fresh output
// value.
type RewardShape int

// The supported reward smoothings.
const (
	// RewardLog is ln(θ·value + 1), the paper's Eq. 3.
	RewardLog RewardShape = iota
	// RewardLinear is θ·value with no smoothing — the §IV-A strawman that
	// over-rewards many-label models.
	RewardLinear
	// RewardAverage is θ·value/|O'|, the per-label average confidence
	// smoothing §IV-A mentions as an alternative.
	RewardAverage
)

// String names the shape.
func (s RewardShape) String() string {
	switch s {
	case RewardLog:
		return "log"
	case RewardLinear:
		return "linear"
	case RewardAverage:
		return "average"
	default:
		return fmt.Sprintf("RewardShape(%d)", int(s))
	}
}

// RewardWith computes the paper's reward function (Eq. 3) under an
// explicit smoothing shape; with RewardLog it is
//
//	r(m,d) = ln(θ_m · Σ_{l ∈ O'(m,d)} p_l·l.conf + 1)  when O'(m,d) ≠ ∅
//	r(m,d) = −1                                         when O'(m,d) = ∅
//
// where O'(m,d) is the set of labels m emitted that no previously executed
// model had emitted, and freshCount/freshValue are |O'| and its
// profit-weighted confidence sum. The logarithm smooths the bias from
// models with very different output counts, exactly as §IV-A argues.
func RewardWith(shape RewardShape, theta float64, freshCount int, freshValue float64) float64 {
	if freshCount == 0 {
		return -1
	}
	switch shape {
	case RewardLinear:
		return theta * freshValue
	case RewardAverage:
		return theta * freshValue / float64(freshCount)
	default:
		return math.Log(theta*freshValue + 1)
	}
}

// FreshValue sums the profit-weighted confidences of newly emitted labels
// — the Σ p_i·conf_i term feeding the reward function.
func FreshValue(vocab *labels.Vocabulary, fresh []zoo.LabelConf) float64 {
	var sum float64
	for _, lc := range fresh {
		sum += vocab.Label(lc.ID).Profit * lc.Conf
	}
	return sum
}

// Train runs the DRL training environment of §IV over the store's
// scenes and returns the trained agent. The observation is the binary
// labeling state, each model is an action, END terminates the episode
// with zero reward, and executing a model that contributes nothing new
// is punished with −1. The learner draws its RNG first, then each epoch
// draws one permutation of the scenes.
func Train(st *oracle.Store, cfg TrainConfig) *Agent {
	numModels := st.NumModels()
	cfg = cfg.withDefaults(numModels)
	if len(cfg.Theta) != numModels {
		panic(fmt.Sprintf("core: Theta has %d entries, want %d", len(cfg.Theta), numModels))
	}
	rng := tensor.NewRNG(cfg.Seed)
	learner := rl.NewLearner(rl.LearnerConfig{
		Algo:     cfg.Algo,
		StateDim: labels.Total,
		Actions:  numModels + 1, // + END
		Hidden:   cfg.Hidden,
		Gamma:    cfg.Gamma,
	}, rng.Split())
	end := numModels
	allowedActions := func(t *oracle.Tracker) []int {
		// Sized for END too, so the append below never copies.
		un := slices.AppendSeq(make([]int, 0, numModels-t.ExecutedCount()+1), t.Unexecuted())
		if cfg.DisableEnd {
			return un
		}
		return append(un, end) // END is always available
	}
	step := 0
	maybeTrain := func(epochLoss *float64, lossN *int) {
		step++
		if step%trainEvery == 0 {
			if l := learner.TrainStep(); l > 0 {
				*epochLoss += l
				*lossN++
			}
		}
	}

	for e := 0; e < cfg.Epochs; e++ {
		order := rng.Perm(st.NumScenes())
		var epochLoss, epochReward float64
		var lossN, stepN int
		for _, scene := range order {
			t := oracle.NewTracker(st, scene)
			state := append([]int(nil), t.State()...)
			eps := explore.At(step)
			action := learner.SelectAction(state, eps, allowedActions(t))
			for {
				if action == end {
					learner.Observe(rl.Transition{
						State: state, Action: end, Reward: 0, Done: true,
					})
					stepN++
					maybeTrain(&epochLoss, &lossN)
					break
				}
				_, fresh := t.Execute(action)
				r := RewardWith(cfg.Shape, cfg.Theta[action],
					len(fresh), FreshValue(st.Zoo.Vocab, fresh))
				epochReward += r
				next := append([]int(nil), t.State()...)
				done := t.ExecutedCount() == numModels
				var nextAction int
				if !done {
					eps = explore.At(step)
					nextAction = learner.SelectAction(next, eps, allowedActions(t))
				}
				learner.Observe(rl.Transition{
					State: state, Action: action, Reward: r,
					Next: next, NextAction: nextAction, Done: done,
				})
				stepN++
				maybeTrain(&epochLoss, &lossN)
				if done {
					break
				}
				state, action = next, nextAction
			}
		}
		if cfg.Progress != nil {
			meanLoss := 0.0
			if lossN > 0 {
				meanLoss = epochLoss / float64(lossN)
			}
			meanReward := 0.0
			if stepN > 0 {
				meanReward = epochReward / float64(stepN)
			}
			cfg.Progress(e, meanLoss, meanReward)
		}
	}
	return &Agent{
		Net:       learner.Online(),
		NumModels: numModels,
		Algo:      cfg.Algo,
		Dataset:   cfg.Dataset,
	}
}
