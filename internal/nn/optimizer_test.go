package nn

import (
	"math"
	"runtime"
	"testing"

	"ams/internal/tensor"
)

// TestAdamStepMatchesSerialReference: Step's chunked, parallel update
// leaves every parameter and moment with the bits of Adam's rule applied
// one element after another, whatever GOMAXPROCS splits the tensors into.
func TestAdamStepMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		// The first layer's 300 x 130 weights span more than two chunks.
		n := NewNet(Config{In: 300, Hidden: []int{130}, Out: 7, Dueling: true}, tensor.NewRNG(5))
		if len(n.Params()[0].Val) < 2*adamChunk {
			t.Fatalf("first layer has %d weights, fewer than two chunks", len(n.Params()[0].Val))
		}
		ref := n.Clone()
		opt := NewAdam(1e-3)
		var refM, refV []tensor.Vec
		rng := tensor.NewRNG(11)
		for step := 1; step <= 4; step++ {
			params, refParams := n.Params(), ref.Params()
			for i, p := range params {
				for j := range p.Grad {
					g := rng.Norm()
					if rng.Bool(0.5) {
						g = 0 // the first layer's gradient is mostly zero
					}
					p.Grad[j], refParams[i].Grad[j] = g, g
				}
			}
			opt.Step(n)

			// Adam's rule, one element after another.
			if refM == nil {
				refM, refV = makeState(refParams), makeState(refParams)
			}
			o := opt
			bc1 := 1 - math.Pow(o.Beta1, float64(step))
			bc2 := 1 - math.Pow(o.Beta2, float64(step))
			for i, p := range refParams {
				m, v := refM[i], refV[i]
				for j := range p.Val {
					g := p.Grad[j]
					m[j] = float64(o.Beta1*m[j]) + float64((1-o.Beta1)*g)
					v[j] = float64(o.Beta2*v[j]) + float64((1-o.Beta2)*g*g)
					mhat := m[j] / bc1
					vhat := v[j] / bc2
					p.Val[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Epsilon)
				}
			}

			for i, p := range params {
				for _, pair := range [][2]tensor.Vec{{p.Val, refParams[i].Val}, {opt.m[i], refM[i]}, {opt.v[i], refV[i]}} {
					for j := range pair[0] {
						if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
							t.Fatalf("GOMAXPROCS %d, step %d, tensor %d[%d]: %v, serial rule %v",
								procs, step, i, j, pair[0][j], pair[1][j])
						}
					}
				}
			}
		}
	}
}
