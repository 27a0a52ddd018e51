package nn

import (
	"math"

	"ams/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba, 2015). It holds per-parameter
// moments keyed by position in the network's Params() slice, so it must
// be used with a single network for its whole life.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m []tensor.Vec
	v []tensor.Vec
}

// NewAdam returns an Adam optimizer with standard defaults for the moment
// coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update using the gradients currently accumulated in
// the network and leaves the gradients untouched (callers usually
// ZeroGrad afterwards).
func (o *Adam) Step(n *Net) {
	params := n.Params()
	if o.m == nil {
		o.m = makeState(params)
		o.v = makeState(params)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		m, v := o.m[i], o.v[i]
		for j := range p.Val {
			g := p.Grad[j]
			m[j] = o.Beta1*m[j] + (1-o.Beta1)*g
			v[j] = o.Beta2*v[j] + (1-o.Beta2)*g*g
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			p.Val[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Epsilon)
		}
	}
}

func makeState(params []Param) []tensor.Vec {
	st := make([]tensor.Vec, len(params))
	for i, p := range params {
		st[i] = tensor.NewVec(len(p.Val))
	}
	return st
}
