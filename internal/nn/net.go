package nn

import (
	"fmt"
	"math"

	"ams/internal/tensor"
)

// Net is a feed-forward Q-value network: a stack of fully connected ReLU
// layers over a sparse binary input, topped either by a plain linear output
// head or by a dueling pair of heads (state-value V and per-action
// advantage A) combined as Q = V + A - mean(A), per Wang et al. (2015).
//
// A Net is the training form and is not safe for concurrent use: forward
// passes cache activations for the subsequent backward pass. Inference
// runs on the immutable view Freeze builds, which goroutines share.
type Net struct {
	in, out int
	hidden  []int
	dueling bool

	feature []*Linear // in -> hidden[0] -> ... -> hidden[last]
	advHead *Linear   // hidden[last] -> out
	valHead *Linear   // hidden[last] -> 1, only when dueling

	// forward caches
	acts    []tensor.Vec // post-ReLU activation of each feature layer
	preacts []tensor.Vec // pre-ReLU sums of each feature layer
	adv     tensor.Vec
	val     tensor.Vec
	q       tensor.Vec
	active  []int // sparse input of the last forward

	// backward scratch
	dacts  []tensor.Vec
	dadv   tensor.Vec
	dadvIn tensor.Vec // advantage head's share of the top-layer gradient
}

// Config describes a Q-network architecture.
type Config struct {
	In      int   // input (labeling-state) dimension
	Hidden  []int // hidden layer widths; the paper uses one layer of 256
	Out     int   // number of actions
	Dueling bool  // use the dueling value/advantage decomposition
}

// NewNet builds a network from cfg with weights drawn from rng; a nil rng
// leaves them zero, for a network about to be overwritten (Clone, Load).
func NewNet(cfg Config, rng *tensor.RNG) *Net {
	if cfg.In <= 0 || cfg.Out <= 0 {
		panic(fmt.Sprintf("nn: invalid net dims in=%d out=%d", cfg.In, cfg.Out))
	}
	if len(cfg.Hidden) == 0 {
		panic("nn: at least one hidden layer required")
	}
	n := &Net{in: cfg.In, out: cfg.Out, hidden: append([]int(nil), cfg.Hidden...), dueling: cfg.Dueling}
	prev := cfg.In
	for _, h := range cfg.Hidden {
		if h <= 0 {
			panic("nn: non-positive hidden width")
		}
		n.feature = append(n.feature, NewLinear(prev, h, rng))
		n.acts = append(n.acts, tensor.NewVec(h))
		n.preacts = append(n.preacts, tensor.NewVec(h))
		n.dacts = append(n.dacts, tensor.NewVec(h))
		prev = h
	}
	n.advHead = NewLinear(prev, cfg.Out, rng)
	n.adv = tensor.NewVec(cfg.Out)
	n.dadv = tensor.NewVec(cfg.Out)
	n.q = tensor.NewVec(cfg.Out)
	if cfg.Dueling {
		n.valHead = NewLinear(prev, 1, rng)
		n.val = tensor.NewVec(1)
		n.dadvIn = tensor.NewVec(prev)
	}
	return n
}

// In returns the input dimension.
func (n *Net) In() int { return n.in }

// Out returns the number of actions.
func (n *Net) Out() int { return n.out }

// Dueling reports whether the network uses dueling heads.
func (n *Net) Dueling() bool { return n.dueling }

// Forward evaluates the network on a sparse binary input whose set bits
// are listed in active, returning the Q-value vector. The returned slice
// aliases internal storage and is invalidated by the next Forward.
func (n *Net) Forward(active []int) tensor.Vec {
	n.active = append(n.active[:0], active...)
	var inAct tensor.Vec
	for li, l := range n.feature {
		if li == 0 {
			l.ForwardSparseInto(n.preacts[0], active)
		} else {
			l.ForwardInto(n.preacts[li], inAct)
		}
		relu(n.acts[li], n.preacts[li])
		inAct = n.acts[li]
	}
	n.advHead.ForwardInto(n.adv, inAct)
	if !n.dueling {
		copy(n.q, n.adv)
		return n.q
	}
	n.valHead.ForwardInto(n.val, inAct)
	mean := n.adv.Mean()
	v := n.val[0]
	for i, a := range n.adv {
		n.q[i] = v + a - mean
	}
	return n.q
}

// Backward accumulates parameter gradients given dQ, the gradient of the
// loss w.r.t. the Q output of the most recent Forward call.
func (n *Net) Backward(dQ tensor.Vec) {
	last := len(n.feature) - 1
	top := n.acts[last]
	dTop := n.dacts[last]
	dTop.Zero()

	if n.dueling {
		// Q_i = V + A_i - mean(A)  =>  dV = sum_i dQ_i,
		// dA_i = dQ_i - mean(dQ).
		var sum float64
		for _, g := range dQ {
			sum += g
		}
		mean := sum / float64(n.out)
		for i, g := range dQ {
			n.dadv[i] = g - mean
		}
		n.valHead.BackwardDense(dTop, tensor.Vec{sum}, top)
		// advHead gradient adds into dTop as well.
		n.advHead.BackwardDense(n.dadvIn, n.dadv, top)
		dTop.Add(n.dadvIn)
	} else {
		n.advHead.BackwardDense(dTop, dQ, top)
	}

	// Back through the feature stack.
	for li := last; li >= 0; li-- {
		// ReLU gate: zero the gradient where the pre-activation was <= 0.
		d := n.dacts[li]
		pre := n.preacts[li]
		for i := range d {
			if pre[i] <= 0 {
				d[i] = 0
			}
		}
		if li == 0 {
			n.feature[0].BackwardSparse(d, n.active)
		} else {
			n.dacts[li-1].Zero()
			n.feature[li].BackwardDense(n.dacts[li-1], d, n.acts[li-1])
		}
	}
}

// ZeroGrad clears all accumulated gradients.
func (n *Net) ZeroGrad() {
	for _, l := range n.feature {
		l.ZeroGrad()
	}
	n.advHead.ZeroGrad()
	if n.dueling {
		n.valHead.ZeroGrad()
	}
}

// Params returns flattened (value, gradient) views over every parameter.
func (n *Net) Params() []Param {
	var ps []Param
	for _, l := range n.feature {
		ps = l.Params(ps)
	}
	ps = n.advHead.Params(ps)
	if n.dueling {
		ps = n.valHead.Params(ps)
	}
	return ps
}

// NumParams returns the total number of scalar parameters.
func (n *Net) NumParams() int {
	var total int
	for _, p := range n.Params() {
		total += len(p.Val)
	}
	return total
}

// Clone returns a deep copy sharing no storage with the receiver.
func (n *Net) Clone() *Net {
	c := NewNet(Config{In: n.in, Hidden: n.hidden, Out: n.out, Dueling: n.dueling}, nil)
	c.CopyWeightsFrom(n)
	return c
}

// CopyWeightsFrom copies every parameter value from src. Architectures
// must match; gradients are not copied.
func (n *Net) CopyWeightsFrom(src *Net) {
	dst, s := n.Params(), src.Params()
	if len(dst) != len(s) {
		panic("nn: CopyWeightsFrom architecture mismatch")
	}
	for i := range dst {
		if len(dst[i].Val) != len(s[i].Val) {
			panic("nn: CopyWeightsFrom parameter shape mismatch")
		}
		copy(dst[i].Val, s[i].Val)
	}
}

// SoftUpdateFrom blends src parameters into the receiver:
// theta <- tau*src + (1-tau)*theta. Used for Polyak target-network updates.
func (n *Net) SoftUpdateFrom(src *Net, tau float64) {
	dst, s := n.Params(), src.Params()
	if len(dst) != len(s) {
		panic("nn: SoftUpdateFrom architecture mismatch")
	}
	for i := range dst {
		dv, sv := dst[i].Val, s[i].Val
		for j := range dv {
			dv[j] = tau*sv[j] + (1-tau)*dv[j]
		}
	}
}

// relu stores max(x, 0) — x where x > 0, else +0, NaN included — into out.
// The sign of a pre-activation is a coin flip the branch predictor loses,
// so the test runs on the bit pattern, where it compiles to a conditional
// move: x > 0 exactly when the pattern lies in (+0, +Inf].
func relu(out, in tensor.Vec) {
	out = out[:len(in)]
	for i, x := range in {
		b := math.Float64bits(x)
		if b-1 >= math.Float64bits(math.Inf(1)) {
			b = 0
		}
		out[i] = math.Float64frombits(b)
	}
}
