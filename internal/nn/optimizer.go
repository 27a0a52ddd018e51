package nn

import (
	"math"
	"runtime"
	"sync"

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

	t  int
	m  []tensor.Vec
	v  []tensor.Vec
	wg sync.WaitGroup // Step's chunks
}

// NewAdam returns an Adam optimizer with standard defaults for the moment
// coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// adamChunk is the fewest elements one goroutine of Step updates. Only the
// large weight matrices are split; a goroutine per smaller tensor would
// cost more than its update.
const adamChunk = 1 << 14

// Step applies one update using the gradients currently accumulated in
// the network and leaves the gradients untouched (callers usually
// ZeroGrad afterwards). The update is element-wise, so a large tensor is
// split into up to GOMAXPROCS contiguous chunks updated in parallel, with
// the same bits as one pass; Step returns once every chunk is done.
func (o *Adam) Step(n *Net) {
	params := n.Params()
	if o.m == nil {
		o.m = makeState(params)
		o.v = makeState(params)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	procs := runtime.GOMAXPROCS(0)
	for i, p := range params {
		k := max(1, min(procs, len(p.Val)/adamChunk))
		size := (len(p.Val) + k - 1) / k
		// Chunks after the first go to other goroutines; the first is
		// updated here, while they run.
		for lo := size; lo < len(p.Val); lo += size {
			hi := min(lo+size, len(p.Val))
			val, grad, m, v := p.Val[lo:hi], p.Grad[lo:hi], o.m[i][lo:hi], o.v[i][lo:hi]
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				o.update(val, grad, m, v, bc1, bc2)
			}()
		}
		o.update(p.Val[:size], p.Grad[:size], o.m[i][:size], o.v[i][:size], bc1, bc2)
	}
	o.wg.Wait()
}

// update applies Adam's rule to one run of elements, given the bias
// corrections bc1 and bc2 of the current step.
func (o *Adam) update(val, grad, m, v tensor.Vec, bc1, bc2 float64) {
	for j := range val {
		g := grad[j]
		m[j] = o.Beta1*m[j] + (1-o.Beta1)*g
		v[j] = o.Beta2*v[j] + (1-o.Beta2)*g*g
		mhat := m[j] / bc1
		vhat := v[j] / bc2
		val[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Epsilon)
	}
}

func makeState(params []Param) []tensor.Vec {
	st := make([]tensor.Vec, len(params))
	for i, p := range params {
		st[i] = tensor.NewVec(len(p.Val))
	}
	return st
}
