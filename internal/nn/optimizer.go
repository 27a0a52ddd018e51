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

	t    int
	m    []tensor.Vec
	v    []tensor.Vec
	coef adamCoef       // the current step's constants
	wg   sync.WaitGroup // Step's parts
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
// ZeroGrad afterwards). A tensor that carries live rows has only those
// updated (see Param); every other tensor is updated whole. The update is
// element-wise, so the work of a large tensor is split into up to
// GOMAXPROCS parts, runs of elements or of live rows, updated in
// parallel with the same bits as one pass; Step returns once every part
// is done.
func (o *Adam) Step(n *Net) {
	params := n.Params()
	if o.m == nil {
		o.m = makeState(params)
		o.v = makeState(params)
	}
	o.t++
	o.coef = adamCoef{
		beta1: o.Beta1, oneMinusBeta1: 1 - o.Beta1,
		beta2: o.Beta2, oneMinusBeta2: 1 - o.Beta2,
		bc1: 1 - math.Pow(o.Beta1, float64(o.t)),
		bc2: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr:  o.LR, eps: o.Epsilon,
	}
	c := &o.coef
	procs := runtime.GOMAXPROCS(0)
	for i := range params {
		p, m, v := params[i], o.m[i], o.v[i]
		// A part is a run of elements, or of live rows.
		parts, elems := len(p.Val), len(p.Val)
		if p.rows != nil {
			parts, elems = len(p.rows), len(p.rows)*p.width
		}
		k := max(1, min(procs, elems/adamChunk))
		size := (parts + k - 1) / k
		// Parts after the first go to other goroutines; the first is
		// updated here, while they run.
		for lo := size; lo < parts; lo += size {
			hi := min(lo+size, parts)
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				updatePart(p, m, v, lo, hi, c)
			}()
		}
		updatePart(p, m, v, 0, min(size, parts), c)
	}
	o.wg.Wait()
}

// updatePart applies Adam's rule to part [lo, hi) of p, given its moments
// m and v: elements lo to hi of a tensor updated whole, or the live rows
// p.rows[lo:hi].
func updatePart(p Param, m, v tensor.Vec, lo, hi int, c *adamCoef) {
	if p.rows == nil {
		adamUpdate(p.Val[lo:hi], p.Grad[lo:hi], m[lo:hi], v[lo:hi], c)
		return
	}
	w := p.width
	for _, r := range p.rows[lo:hi] {
		s, e := r*w, (r+1)*w
		adamUpdate(p.Val[s:e], p.Grad[s:e], m[s:e], v[s:e], c)
	}
}

func makeState(params []Param) []tensor.Vec {
	st := make([]tensor.Vec, len(params))
	for i, p := range params {
		st[i] = tensor.NewVec(len(p.Val))
	}
	return st
}
