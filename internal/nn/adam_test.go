package nn

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"ams/internal/tensor"
)

// TestAdamKernelMatchesGoReferenceBitForBit: adamUpdate, which runs pairs
// of elements through the assembly on amd64 and an odd last one through
// Go, leaves every value and moment with the Go reference's bits, for
// every length from 0 to 40 and values at the edges of float64: signed
// zeros, subnormals, gradients of ±1e300 whose square overflows to +Inf,
// and NaN. It allocates nothing.
func TestAdamKernelMatchesGoReferenceBitForBit(t *testing.T) {
	rng := tensor.NewRNG(3)
	negZero := math.Copysign(0, -1)
	pick := func(vals ...float64) float64 {
		if rng.Bool(0.5) {
			return rng.Norm() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		return vals[rng.Intn(len(vals))]
	}
	for _, step := range []int{1, 2, 1000} {
		o := NewAdam(1e-3)
		c := &adamCoef{
			beta1: o.Beta1, oneMinusBeta1: 1 - o.Beta1,
			beta2: o.Beta2, oneMinusBeta2: 1 - o.Beta2,
			bc1: 1 - math.Pow(o.Beta1, float64(step)),
			bc2: 1 - math.Pow(o.Beta2, float64(step)),
			lr:  o.LR, eps: o.Epsilon,
		}
		for n := 0; n <= 40; n++ {
			val, grad, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range n {
				val[i] = pick(0, negZero, 5e-324, -4e-320, math.NaN())
				grad[i] = pick(0, negZero, 5e-324, -4e-320, 1e300, -1e300, math.NaN())
				m[i] = pick(0, negZero, 5e-324, -4e-320)
				v[i] = math.Abs(pick(0, 5e-324, 4e-320))
			}
			wantVal, wantM, wantV := slices.Clone(val), slices.Clone(m), slices.Clone(v)
			adamUpdateGo(wantVal, grad, wantM, wantV, c)
			adamUpdate(val, grad, m, v, c)
			for _, pair := range [][2][]float64{{val, wantVal}, {m, wantM}, {v, wantV}} {
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("step %d, length %d, element %d: kernel %v (%#x), reference %v (%#x)",
							step, n, i, pair[0][i], math.Float64bits(pair[0][i]), pair[1][i], math.Float64bits(pair[1][i]))
					}
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { adamUpdate(val, grad, m, v, c) }); allocs != 0 {
				t.Fatalf("length %d: adamUpdate allocates %v times", n, allocs)
			}
		}
	}
}

// TestAdamSkipsOnlyUntouchedRowsBitForBit: with gradients from
// Net.Backward over states that never name some inputs, Step, which
// updates only the first layer's live rows, leaves every parameter and
// moment with the bits of Adam's rule applied to every element, whatever
// GOMAXPROCS splits the live rows into. One input is live but its
// gradient is always zero (its row drives every unit below the ReLU
// gate), and an untouched row holds -0, which the rule keeps. ZeroGrad
// leaves every gradient +0.
func TestAdamSkipsOnlyUntouchedRowsBitForBit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const (
		in, hidden, out = 400, 130, 7
		untouched       = 10 // inputs 0-9 never appear in a state
		gated           = 10 // input 10's row closes every ReLU gate
		negZeroRow      = 3
	)
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		n := NewNet(Config{In: in, Hidden: []int{hidden}, Out: out, Dueling: true}, tensor.NewRNG(5))
		first := n.feature[0]
		for i := range first.W.Row(gated) {
			first.W.Row(gated)[i] = -1e3
		}
		first.W.Row(negZeroRow)[5] = math.Copysign(0, -1)
		ref := n.Clone()
		opt := NewAdam(1e-3)
		var refM, refV []tensor.Vec
		rng := tensor.NewRNG(11)
		dQ := tensor.NewVec(out)
		for step := 1; step <= 5; step++ {
			n.ZeroGrad()
			for pi, p := range n.Params() {
				for j, g := range p.Grad {
					if math.Float64bits(g) != 0 {
						t.Fatalf("GOMAXPROCS %d, step %d: gradient %d[%d] is %v after ZeroGrad", procs, step, pi, j, g)
					}
				}
			}
			for range 8 {
				var state []int
				for range 60 {
					state = append(state, untouched+1+rng.Intn(in-untouched-1))
				}
				if rng.Bool(0.3) {
					state = append(state, gated)
				}
				slices.Sort(state)
				n.Forward(slices.Compact(state))
				dQ.Zero()
				dQ[rng.Intn(out)] = rng.Norm()
				n.Backward(dQ)
			}
			for _, g := range first.GW.Row(gated) {
				if math.Float64bits(g) != 0 {
					t.Fatalf("GOMAXPROCS %d, step %d: the gated row's gradient holds %v", procs, step, g)
				}
			}
			params, refParams := n.Params(), ref.Params()
			if refM == nil {
				refM, refV = makeState(refParams), makeState(refParams)
			}
			opt.Step(n)

			// Adam's rule, every element of every tensor, each product
			// rounded before it is added, as on every GOARCH.
			o := opt
			bc1 := 1 - math.Pow(o.Beta1, float64(step))
			bc2 := 1 - math.Pow(o.Beta2, float64(step))
			for i, p := range refParams {
				m, v := refM[i], refV[i]
				for j := range p.Val {
					g := params[i].Grad[j]
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
							t.Fatalf("GOMAXPROCS %d, step %d, tensor %d[%d]: %v, dense rule %v",
								procs, step, i, j, pair[0][j], pair[1][j])
						}
					}
				}
			}
		}
		if slices.ContainsFunc(first.liveRows, func(j int) bool { return j < untouched }) || !first.live[gated] {
			t.Fatalf("GOMAXPROCS %d: live rows %v name an untouched input or miss the gated one", procs, first.liveRows)
		}
		if live := len(first.liveRows) * hidden; live < 3*adamChunk {
			t.Fatalf("%d live weights, fewer than three chunks", live)
		}
		if b := math.Float64bits(first.W.Row(negZeroRow)[5]); b != math.Float64bits(math.Copysign(0, -1)) {
			t.Fatalf("GOMAXPROCS %d: the untouched -0 weight became %#x", procs, b)
		}
	}
}
