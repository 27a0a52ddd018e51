package rl

import (
	"fmt"

	"ams/internal/nn"
	"ams/internal/tensor"
)

// Algorithm selects the Q-learning variant used to compute bootstrap
// targets (and, for DuelingDQN, the network architecture).
type Algorithm int

// The four trainers evaluated in the paper (§VI-B).
const (
	DQN Algorithm = iota
	DoubleDQN
	DuelingDQN
	DeepSARSA
)

// String returns the canonical paper name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case DQN:
		return "DQN"
	case DoubleDQN:
		return "DoubleDQN"
	case DuelingDQN:
		return "DuelingDQN"
	case DeepSARSA:
		return "DeepSARSA"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name as printed by String back to an
// Algorithm value.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{DQN, DoubleDQN, DuelingDQN, DeepSARSA} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("rl: unknown algorithm %q", s)
}

// Algorithms lists every supported variant in paper order.
func Algorithms() []Algorithm {
	return []Algorithm{DQN, DoubleDQN, DuelingDQN, DeepSARSA}
}

// LearnerConfig configures a Learner; Hidden and Gamma have no defaults.
type LearnerConfig struct {
	Algo     Algorithm
	StateDim int   // labeling-state dimension (|L(M)|)
	Actions  int   // |M| + 1 (models plus the END action)
	Hidden   []int // hidden widths; the paper uses {256}
	Gamma    float64
}

// The optimizer and replay hyperparameters every agent trains with.
const (
	learningRate    = 3e-4
	batchSize       = 32
	replayCapacity  = 20000
	targetSyncEvery = 500            // hard target-network sync period (train steps)
	warmupSize      = 16 * batchSize // transitions required before updates begin
	huberDelta      = 1
)

// Learner trains a Q-network from transitions. It owns the online and
// target networks, the replay buffer, and the optimizer.
type Learner struct {
	cfg    LearnerConfig
	online *nn.Net
	target *nn.Net
	opt    *nn.Adam
	buf    *ReplayBuffer
	rng    *tensor.RNG

	trainSteps int
	batch      []Transition
	dQ         tensor.Vec
}

// NewLearner constructs a learner. The DuelingDQN variant instantiates the
// dueling network architecture; the others use the plain MLP.
func NewLearner(cfg LearnerConfig, rng *tensor.RNG) *Learner {
	if cfg.StateDim <= 0 || cfg.Actions <= 1 {
		panic(fmt.Sprintf("rl: invalid learner dims state=%d actions=%d", cfg.StateDim, cfg.Actions))
	}
	netCfg := nn.Config{
		In:      cfg.StateDim,
		Hidden:  cfg.Hidden,
		Out:     cfg.Actions,
		Dueling: cfg.Algo == DuelingDQN,
	}
	online := nn.NewNet(netCfg, rng)
	target := online.Clone()
	return &Learner{
		cfg:    cfg,
		online: online,
		target: target,
		opt:    nn.NewAdam(learningRate),
		buf:    NewReplayBuffer(replayCapacity, rng.Split()),
		rng:    rng,
		batch:  make([]Transition, batchSize),
		dQ:     tensor.NewVec(cfg.Actions),
	}
}

// Online returns the online network. Callers must not use it concurrently
// with training.
func (l *Learner) Online() *nn.Net { return l.online }

// SelectAction performs epsilon-greedy selection restricted to the allowed
// action indices. It panics when allowed is empty.
func (l *Learner) SelectAction(state []int, epsilon float64, allowed []int) int {
	if len(allowed) == 0 {
		panic("rl: SelectAction with no allowed actions")
	}
	if l.rng.Bool(epsilon) {
		return allowed[l.rng.Intn(len(allowed))]
	}
	q := l.online.Forward(state)
	best, bestQ := allowed[0], q[allowed[0]]
	for _, a := range allowed[1:] {
		if q[a] > bestQ {
			best, bestQ = a, q[a]
		}
	}
	return best
}

// Observe appends a transition to the replay buffer.
func (l *Learner) Observe(tr Transition) { l.buf.Add(tr) }

// TrainStep samples a minibatch and applies one optimizer update,
// returning the mean Huber loss. It is a no-op (returning 0) until the
// buffer has finished its warmup.
func (l *Learner) TrainStep() float64 {
	if l.buf.Len() < warmupSize {
		return 0
	}
	batch := l.buf.SampleInto(l.batch)
	l.online.ZeroGrad()
	var totalLoss float64
	for i := range batch {
		tr := &batch[i]
		y := l.targetValue(tr)
		q := l.online.Forward(tr.State)
		loss, grad := nn.HuberLoss(q[tr.Action], y, huberDelta)
		totalLoss += loss
		l.dQ.Zero()
		l.dQ[tr.Action] = grad / float64(len(batch))
		l.online.Backward(l.dQ)
	}
	l.opt.Step(l.online)
	l.trainSteps++
	if l.trainSteps%targetSyncEvery == 0 {
		l.target.CopyWeightsFrom(l.online)
	}
	return totalLoss / float64(len(batch))
}

// targetValue computes the bootstrap target for one transition according
// to the configured algorithm.
func (l *Learner) targetValue(tr *Transition) float64 {
	if tr.Done {
		return tr.Reward
	}
	switch l.cfg.Algo {
	case DoubleDQN, DuelingDQN:
		// Action selected by the online net, evaluated by the target net.
		// The dueling variant also uses the double estimator, as in the
		// dueling-networks paper, which keeps its shared value stream from
		// compounding max-bias.
		qOnline := l.online.Forward(tr.Next)
		_, argmax := qOnline.Max()
		qTarget := l.target.Forward(tr.Next)
		return tr.Reward + l.cfg.Gamma*qTarget[argmax]
	case DeepSARSA:
		// On-policy: evaluate the action the behaviour policy actually took.
		qTarget := l.target.Forward(tr.Next)
		return tr.Reward + l.cfg.Gamma*qTarget[tr.NextAction]
	default: // DQN uses the standard max-target.
		qTarget := l.target.Forward(tr.Next)
		maxQ, _ := qTarget.Max()
		return tr.Reward + l.cfg.Gamma*maxQ
	}
}
