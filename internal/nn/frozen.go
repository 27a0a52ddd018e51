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
// to the Net's. A hidden layer's bias, ReLU and the listing of its
// non-zero activations are one pass over its outputs (activate), and the
// next layer adds the listed rows in one kernel call per 16 columns.
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

// activeRows is how many of a hidden layer's units forward lists at a
// time, on its stack: all of them at the paper's 256.
const activeRows = 256

func (f *Frozen) forward(scratch tensor.Vec, active []int) tensor.Vec {
	first := f.layers[0]
	x := scratch[:first.w.Cols]
	first.w.SumRowsSparseInto(x, active)
	b, off := first.b, len(x)
	var buf [activeRows]int
	for _, l := range f.layers[1:] {
		y := scratch[off : off+l.w.Cols]
		y.Zero()
		for lo := 0; lo < len(x); lo += len(buf) {
			hi := min(lo+len(buf), len(x))
			l.w.AddScaledRows(y, activate(x[lo:hi], b[lo:hi], lo, buf[:]), x)
		}
		x, b, off = y, l.b, off+len(y)
	}
	x.Add(b) // the head's bias, last
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

// activate adds the bias b into the pre-activations x, applies relu in
// place, and lists in rows the indices, counted from base, of the
// activations left non-zero, in one pass. Each value is rounded as
// x.Add(b) then relu would round it, and, as in relu, neither the ReLU
// nor the listing branches on a sign the branch predictor cannot guess:
// every index is written and the count advances only past a non-zero
// one.
func activate(x, b tensor.Vec, base int, rows []int) []int {
	b, rows = b[:len(x)], rows[:len(x)]
	n := 0
	for i := range x {
		bits := math.Float64bits(x[i] + b[i])
		if bits-1 >= math.Float64bits(math.Inf(1)) {
			bits = 0
		}
		x[i] = math.Float64frombits(bits)
		rows[n] = base + i
		if bits != 0 {
			n++
		}
	}
	return rows[:n]
}
