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
// Layout rule: every weight matrix is stored input-major (In x Out), for
// training and inference alike, so each active input or non-zero
// activation adds one contiguous row. Save and Load keep the output-major
// wire format of earlier versions by transposing at the boundary.
package nn

import (
	"fmt"
	"math"

	"ams/internal/tensor"
)

// Linear is a fully connected layer out = W^T*x + b with gradient
// buffers. W is input-major: row j holds the weights leaving input j.
type Linear struct {
	In, Out int
	W       *tensor.Mat // In x Out
	B       tensor.Vec  // Out
	GW      *tensor.Mat // gradient accumulator for W
	GB      tensor.Vec  // gradient accumulator for B

	// live[j] records that BackwardSparse has added into row j of GW, and
	// liveRows lists those rows in the order they were first reached.
	// Both are nil until the first BackwardSparse call and only grow.
	live     []bool
	liveRows []int
}

// NewLinear returns a layer with He-uniform initialised weights, the
// standard choice for ReLU networks. A nil rng leaves the weights zero,
// for a layer whose weights are about to be overwritten. The weights are
// drawn output by output, so a seed gives the network it always has.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid linear dimensions %dx%d", in, out))
	}
	l := &Linear{
		In:  in,
		Out: out,
		W:   tensor.NewMat(in, out),
		B:   tensor.NewVec(out),
		GW:  tensor.NewMat(in, out),
		GB:  tensor.NewVec(out),
	}
	if rng != nil {
		bound := math.Sqrt(6.0 / float64(in))
		for i := 0; i < out; i++ {
			for j := 0; j < in; j++ {
				l.W.Data[j*out+i] = rng.Range(-bound, bound)
			}
		}
	}
	return l
}

// ForwardInto computes out = W^T*x + b. Inputs that are zero, as half of
// a ReLU layer's are, add nothing and are skipped.
func (l *Linear) ForwardInto(out, x tensor.Vec) {
	l.W.MulVecTransInto(out, x)
	out.Add(l.B)
}

// ForwardSparseInto computes out = sum_{j active} W[j,:] + b; it is
// equivalent to ForwardInto with a binary input whose ones sit at active.
func (l *Linear) ForwardSparseInto(out tensor.Vec, active []int) {
	l.W.SumRowsSparseInto(out, active)
	out.Add(l.B)
}

// BackwardDense accumulates gradients given the input x that produced the
// last forward pass and the gradient dOut of the loss w.r.t. this layer's
// output. It returns (into dIn, if non-nil) the gradient w.r.t. x.
func (l *Linear) BackwardDense(dIn, dOut, x tensor.Vec) {
	l.GW.AddOuter(1, x, dOut)
	l.GB.Add(dOut)
	if dIn != nil {
		l.W.MulVecInto(dIn, dOut)
	}
}

// BackwardSparse accumulates gradients for a binary sparse input: the
// weight gradient adds dOut to the row of each active input, and no input
// gradient is produced (the input is data, not a learnable activation).
// It records every row it reaches as live (see Param).
func (l *Linear) BackwardSparse(dOut tensor.Vec, active []int) {
	if l.live == nil {
		l.live = make([]bool, l.In)
		l.liveRows = make([]int, 0, l.In)
	}
	for _, j := range active {
		if !l.live[j] {
			l.live[j] = true
			l.liveRows = append(l.liveRows, j)
		}
		l.GW.Row(j).Add(dOut)
	}
	l.GB.Add(dOut)
}

// ZeroGrad clears the accumulated gradients. Once BackwardSparse has
// been called, only its live rows can hold anything but +0, so only they
// are cleared.
func (l *Linear) ZeroGrad() {
	if l.live == nil {
		l.GW.Zero()
	} else {
		for _, j := range l.liveRows {
			l.GW.Row(j).Zero()
		}
	}
	l.GB.Zero()
}

// Params appends this layer's (value, gradient) pairs to dst.
func (l *Linear) Params(dst []Param) []Param {
	return append(dst,
		Param{Val: l.W.Data, Grad: l.GW.Data, rows: l.liveRows, width: l.Out},
		Param{Val: l.B, Grad: l.GB},
	)
}

// Param is a flattened view of one parameter tensor and its gradient.
//
// The weights of a layer that BackwardSparse has been called on carry its
// live rows: rows lists every row, of width elements, that a gradient has
// ever reached, and Adam.Step updates only those. Every other row has
// held Grad = m = v = +0 since the start, and Adam's rule leaves such an
// element's value with the bits it has, -0 included, so skipping it is
// exact. That holds only if, once BackwardSparse has been called on a
// layer, its weight gradient is written only through it. rows is nil for
// every other tensor, which Step updates whole.
type Param struct {
	Val  tensor.Vec
	Grad tensor.Vec

	rows  []int
	width int
}
