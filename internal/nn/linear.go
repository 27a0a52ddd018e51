// Package nn implements the small feed-forward neural networks used as
// Q-value functions by the AMS reproduction: a multi-layer perceptron with
// ReLU activations, an optional dueling head (value + advantage streams),
// per-sample backpropagation with gradient accumulation, the Adam
// optimizer, the Huber loss, and gob persistence.
//
// The labeling state that feeds the network is a high-dimensional binary
// vector with very few active bits, so the first layer exposes a sparse
// forward/backward fast path indexed by the active positions.
//
// Layout rule: training (Net) keeps output-major weights, which is what
// the AddOuter gradient update wants; inference (Frozen) reads an
// input-major copy, so each active input or non-zero activation adds one
// contiguous row.
package nn

import (
	"fmt"
	"math"

	"ams/internal/tensor"
)

// Linear is a fully connected layer out = W*x + b with gradient buffers.
type Linear struct {
	In, Out int
	W       *tensor.Mat // Out x In
	B       tensor.Vec  // Out
	GW      *tensor.Mat // gradient accumulator for W
	GB      tensor.Vec  // gradient accumulator for B
}

// NewLinear returns a layer with He-uniform initialised weights, the
// standard choice for ReLU networks. A nil rng leaves the weights zero,
// for a layer whose weights are about to be overwritten.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid linear dimensions %dx%d", in, out))
	}
	l := &Linear{
		In:  in,
		Out: out,
		W:   tensor.NewMat(out, in),
		B:   tensor.NewVec(out),
		GW:  tensor.NewMat(out, in),
		GB:  tensor.NewVec(out),
	}
	if rng != nil {
		bound := math.Sqrt(6.0 / float64(in))
		for i := range l.W.Data {
			l.W.Data[i] = rng.Range(-bound, bound)
		}
	}
	return l
}

// ForwardInto computes out = W*x + b.
func (l *Linear) ForwardInto(out, x tensor.Vec) {
	l.W.MulVecInto(out, x)
	out.Add(l.B)
}

// ForwardSparseInto computes out = sum_{j active} W[:,j] + b; it is
// equivalent to ForwardInto with a binary input whose ones sit at active.
func (l *Linear) ForwardSparseInto(out tensor.Vec, active []int) {
	l.W.SumColsSparseInto(out, active)
	out.Add(l.B)
}

// BackwardDense accumulates gradients given the input x that produced the
// last forward pass and the gradient dOut of the loss w.r.t. this layer's
// output. It returns (into dIn, if non-nil) the gradient w.r.t. x.
func (l *Linear) BackwardDense(dIn, dOut, x tensor.Vec) {
	l.GW.AddOuter(1, dOut, x)
	l.GB.Add(dOut)
	if dIn != nil {
		l.W.MulVecTransInto(dIn, dOut)
	}
}

// BackwardSparse accumulates gradients for a binary sparse input: the
// weight gradient only touches the active columns, and no input gradient
// is produced (the input is data, not a learnable activation).
func (l *Linear) BackwardSparse(dOut tensor.Vec, active []int) {
	for _, j := range active {
		for i := 0; i < l.Out; i++ {
			l.GW.Data[i*l.In+j] += dOut[i]
		}
	}
	l.GB.Add(dOut)
}

// ZeroGrad clears the accumulated gradients.
func (l *Linear) ZeroGrad() {
	l.GW.Zero()
	l.GB.Zero()
}

// Params appends this layer's (value, gradient) pairs to dst.
func (l *Linear) Params(dst []Param) []Param {
	return append(dst,
		Param{Val: l.W.Data, Grad: l.GW.Data},
		Param{Val: l.B, Grad: l.GB},
	)
}

// Param is a flattened view of one parameter tensor and its gradient.
type Param struct {
	Val  tensor.Vec
	Grad tensor.Vec
}
