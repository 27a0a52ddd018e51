package nn

import (
	"fmt"
	"math"

	"ams/internal/tensor"
)

// Frozen is an inference-only view of a trained Net. It holds a copy of
// the Net's input-major layers with the dueling heads fused into one
// matrix, so a forward pass adds one contiguous row per active input or
// non-zero activation into independent accumulators. Each output is summed
// in the order Net.Forward sums it (sparse layer in active order, dense
// layers by ascending input, bias last), so the Q-values are bit-identical
// to the Net's.
//
// A Frozen is immutable and holds no activations: any number of goroutines
// may share one, each passing its own scratch to Forward.
type Frozen struct {
	out     int
	dueling bool
	layers  []frozenLayer // feature layers, then the head (advantage columns, value last)
	scratch int           // summed layer widths
	empty   tensor.Vec    // Q-values of the empty state, which begins every item
}

type frozenLayer struct {
	w *tensor.Mat // In x Out
	b tensor.Vec
}

// Freeze copies n's weights into an inference view; later changes to n do
// not reach it. The layers are copied as they are, except that the value
// head becomes one more column of the advantage head. It rejects a
// non-finite parameter: skipping a ReLU zero in the dense layers is exact
// only when 0*w is a zero.
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
		f.layers = append(f.layers, frozenLayer{w: cloneMat(l.W), b: l.B.Clone()})
	}
	head := frozenLayer{w: cloneMat(n.advHead.W), b: n.advHead.B.Clone()}
	if n.dueling {
		// Fuse the value head in as one more output: each input's row
		// holds its advantage weights, then its value weight.
		adv := n.advHead.W
		head.w = tensor.NewMat(adv.Rows, adv.Cols+1)
		for j := 0; j < adv.Rows; j++ {
			row := head.w.Row(j)
			copy(row, adv.Row(j))
			row[adv.Cols] = n.valHead.W.Data[j]
		}
		head.b = append(head.b, n.valHead.B...)
	}
	f.layers = append(f.layers, head)
	for _, l := range f.layers {
		f.scratch += l.w.Cols
	}
	f.empty = f.forward(f.NewScratch(), nil).Clone()
	return f, nil
}

func cloneMat(m *tensor.Mat) *tensor.Mat {
	return &tensor.Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// NewScratch returns the working memory one goroutine needs for Forward:
// one float per hidden unit and head output.
func (f *Frozen) NewScratch() tensor.Vec { return tensor.NewVec(f.scratch) }

// Forward evaluates the network on the sparse binary input whose set bits
// are listed in active and returns the Q-values. The result aliases
// scratch, which must come from NewScratch, and is invalidated by the next
// Forward on it. The empty state's Q-values, which every item's first
// select asks for, are computed once by Freeze and copied out here.
func (f *Frozen) Forward(scratch tensor.Vec, active []int) tensor.Vec {
	if len(scratch) != f.scratch {
		panic(fmt.Sprintf("nn: scratch has %d floats, want %d", len(scratch), f.scratch))
	}
	if len(active) == 0 {
		head := f.layers[len(f.layers)-1]
		q := scratch[f.scratch-head.w.Cols:][:f.out]
		copy(q, f.empty)
		return q
	}
	return f.forward(scratch, active)
}

func (f *Frozen) forward(scratch tensor.Vec, active []int) tensor.Vec {
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
