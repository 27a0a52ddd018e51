package nn

import (
	"fmt"
	"math"

	"ams/internal/tensor"
)

// Frozen is an inference-only view of a trained Net. Every layer is stored
// input-major and the dueling heads are fused into one matrix, so a forward
// pass adds one contiguous row per active input or non-zero activation into
// independent accumulators. Each output is summed in the order Net.Forward
// sums it (sparse layer in active order, dense layers by ascending input,
// bias last), so the Q-values are bit-identical to the Net's.
//
// A Frozen is immutable and holds no activations: any number of goroutines
// may share one, each passing its own scratch to Forward.
type Frozen struct {
	out     int
	dueling bool
	layers  []frozenLayer // feature layers, then the head (advantage columns, value last)
	scratch int           // summed layer widths
}

type frozenLayer struct {
	w *tensor.Mat // In x Out
	b tensor.Vec
}

// Freeze copies n's weights into an inference view; later changes to n do
// not reach it. It rejects a non-finite parameter: skipping a ReLU zero in
// the dense layers is exact only when 0*w is a zero.
func Freeze(n *Net) (*Frozen, error) {
	for pi, p := range n.Params() {
		for i, x := range p.Val {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("nn: freeze: parameter tensor %d holds %v at %d", pi, x, i)
			}
		}
	}
	f := &Frozen{out: n.out, dueling: n.dueling}
	for _, l := range n.feature {
		f.layers = append(f.layers, frozenLayer{w: l.W.Transpose(), b: l.B.Clone()})
	}
	headW, headB := n.advHead.W, n.advHead.B.Clone()
	if n.dueling {
		// Fuse the value head in as one more output: its single row
		// follows the advantage rows in an output-major matrix.
		headW = &tensor.Mat{Rows: n.out + 1, Cols: n.advHead.In,
			Data: append(n.advHead.W.Data.Clone(), n.valHead.W.Data...)}
		headB = append(headB, n.valHead.B...)
	}
	head := frozenLayer{w: headW.Transpose(), b: headB}
	f.layers = append(f.layers, head)
	for _, l := range f.layers {
		f.scratch += l.w.Cols
	}
	return f, nil
}

// NewScratch returns the working memory one goroutine needs for Forward:
// one float per hidden unit and head output.
func (f *Frozen) NewScratch() tensor.Vec { return tensor.NewVec(f.scratch) }

// Forward evaluates the network on the sparse binary input whose set bits
// are listed in active and returns the Q-values. The result aliases
// scratch, which must come from NewScratch, and is invalidated by the next
// Forward on it.
func (f *Frozen) Forward(scratch tensor.Vec, active []int) tensor.Vec {
	if len(scratch) != f.scratch {
		panic(fmt.Sprintf("nn: scratch has %d floats, want %d", len(scratch), f.scratch))
	}
	first := f.layers[0]
	x := scratch[:first.w.Cols]
	first.w.SumRowsSparseInto(x, active)
	x.Add(first.b)
	off := len(x)
	for _, l := range f.layers[1:] {
		relu(x, x)
		y := scratch[off : off+l.w.Cols]
		l.w.MulVecTransInto(y, x)
		y.Add(l.b)
		x, off = y, off+len(y)
	}
	if !f.dueling {
		return x
	}
	adv, v := x[:f.out], x[f.out]
	mean := adv.Mean()
	for i, a := range adv {
		adv[i] = v + a - mean
	}
	return adv
}
