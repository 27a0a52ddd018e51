package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ams/internal/tensor"
)

func newTestNet(dueling bool) *Net {
	return NewNet(Config{In: 12, Hidden: []int{8}, Out: 5, Dueling: dueling},
		tensor.NewRNG(1))
}

func TestForwardDeterministic(t *testing.T) {
	n := newTestNet(false)
	a := n.Forward([]int{1, 3}).Clone()
	b := n.Forward([]int{1, 3}).Clone()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeated forward differs at %d", i)
		}
	}
}

func TestForwardSparseMatchesManualDense(t *testing.T) {
	// Evaluate the first layer densely by hand and compare with Forward.
	n := newTestNet(false)
	active := []int{0, 4, 11}
	q := n.Forward(active).Clone()

	// Manual forward.
	x := tensor.NewVec(12)
	for _, j := range active {
		x[j] = 1
	}
	h := tensor.NewVec(8)
	n.feature[0].ForwardInto(h, x)
	for i, v := range h {
		if v < 0 {
			h[i] = 0
		}
	}
	out := tensor.NewVec(5)
	n.advHead.ForwardInto(out, h)
	for i := range q {
		if math.Abs(q[i]-out[i]) > 1e-9 {
			t.Fatalf("sparse forward diverges at %d: %v vs %v", i, q[i], out[i])
		}
	}
}

func TestDuelingIdentity(t *testing.T) {
	// Q = V + A - mean(A) implies mean(Q) == V.
	n := newTestNet(true)
	q := n.Forward([]int{2, 5})
	meanQ := q.Mean()
	if math.Abs(meanQ-n.val[0]) > 1e-9 {
		t.Fatalf("dueling identity violated: mean(Q)=%v V=%v", meanQ, n.val[0])
	}
}

func TestEmptyStateForward(t *testing.T) {
	n := newTestNet(false)
	q := n.Forward(nil)
	if len(q) != 5 {
		t.Fatalf("forward on empty state returned %d values", len(q))
	}
	for _, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite Q on empty state: %v", q)
		}
	}
}

// numericalGrad estimates dLoss/dtheta for the scalar loss q[a] via central
// differences.
func numericalGrad(n *Net, active []int, a int, theta *float64) float64 {
	const eps = 1e-6
	orig := *theta
	*theta = orig + eps
	up := n.Forward(active)[a]
	*theta = orig - eps
	down := n.Forward(active)[a]
	*theta = orig
	return (up - down) / (2 * eps)
}

func gradCheck(t *testing.T, dueling bool) {
	t.Helper()
	n := newTestNet(dueling)
	active := []int{0, 3, 7}
	const action = 2

	n.ZeroGrad()
	n.Forward(active)
	dQ := tensor.NewVec(5)
	dQ[action] = 1
	n.Backward(dQ)

	params := n.Params()
	checked := 0
	for pi, p := range params {
		stride := 1 + len(p.Val)/7 // sample a handful of coordinates
		for j := 0; j < len(p.Val); j += stride {
			want := numericalGrad(n, active, action, &params[pi].Val[j])
			got := p.Grad[j]
			if math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("grad mismatch (dueling=%v) param %d idx %d: analytic %v numeric %v",
					dueling, pi, j, got, want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("gradient check only covered %d coordinates", checked)
	}
}

func TestGradCheckPlain(t *testing.T)   { gradCheck(t, false) }
func TestGradCheckDueling(t *testing.T) { gradCheck(t, true) }

func TestLearnsSimpleMapping(t *testing.T) {
	// Supervised toy problem: Q[target(active)] should go to 1, rest to 0,
	// where target = first active index mod out. A few hundred Adam steps
	// must drive the argmax to the target.
	n := NewNet(Config{In: 6, Hidden: []int{16}, Out: 3}, tensor.NewRNG(3))
	opt := NewAdam(0.01)
	rng := tensor.NewRNG(4)
	for step := 0; step < 1500; step++ {
		a := rng.Intn(6)
		active := []int{a}
		target := a % 3
		q := n.Forward(active)
		dQ := tensor.NewVec(3)
		for i := range dQ {
			want := 0.0
			if i == target {
				want = 1.0
			}
			_, g := MSELoss(q[i], want)
			dQ[i] = g
		}
		n.ZeroGrad()
		n.Backward(dQ)
		opt.Step(n)
	}
	for a := 0; a < 6; a++ {
		q := n.Forward([]int{a})
		_, arg := q.Max()
		if arg != a%3 {
			t.Fatalf("network failed to learn mapping: input %d predicted %d want %d (q=%v)",
				a, arg, a%3, q)
		}
	}
}

func TestCloneAndCopyWeights(t *testing.T) {
	n := newTestNet(true)
	c := n.Clone()
	qa := n.Forward([]int{1}).Clone()
	qb := c.Forward([]int{1}).Clone()
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("clone forward differs at %d", i)
		}
	}
	// Mutating the clone must not affect the original.
	c.Params()[0].Val[0] += 1
	qc := n.Forward([]int{1}).Clone()
	for i := range qa {
		if qa[i] != qc[i] {
			t.Fatal("clone shares storage with original")
		}
	}
}

func TestSoftUpdateConverges(t *testing.T) {
	a := newTestNet(false)
	b := NewNet(Config{In: 12, Hidden: []int{8}, Out: 5}, tensor.NewRNG(9))
	for i := 0; i < 200; i++ {
		b.SoftUpdateFrom(a, 0.1)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Val {
			if math.Abs(pa[i].Val[j]-pb[i].Val[j]) > 1e-6 {
				t.Fatalf("soft update did not converge at param %d idx %d", i, j)
			}
		}
	}
}

func TestSoftUpdateTauOne(t *testing.T) {
	a := newTestNet(false)
	b := NewNet(Config{In: 12, Hidden: []int{8}, Out: 5}, tensor.NewRNG(9))
	b.SoftUpdateFrom(a, 1)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Val {
			if pa[i].Val[j] != pb[i].Val[j] {
				t.Fatal("tau=1 soft update is not a hard copy")
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, dueling := range []bool{false, true} {
		n := newTestNet(dueling)
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		m, err := Load(&buf)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		qa := n.Forward([]int{0, 5}).Clone()
		qb := m.Forward([]int{0, 5}).Clone()
		for i := range qa {
			if qa[i] != qb[i] {
				t.Fatalf("round-trip forward differs (dueling=%v)", dueling)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not gob")); err == nil {
		t.Fatal("Load accepted garbage input")
	}
}

func TestNumParams(t *testing.T) {
	n := NewNet(Config{In: 10, Hidden: []int{4}, Out: 3}, tensor.NewRNG(1))
	want := 10*4 + 4 + 4*3 + 3
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	d := NewNet(Config{In: 10, Hidden: []int{4}, Out: 3, Dueling: true}, tensor.NewRNG(1))
	want += 4*1 + 1
	if got := d.NumParams(); got != want {
		t.Fatalf("dueling NumParams = %d, want %d", got, want)
	}
}

func TestHuberLoss(t *testing.T) {
	// Quadratic region.
	l, g := HuberLoss(1.5, 1.0, 1.0)
	if math.Abs(l-0.125) > 1e-12 || math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("huber quadratic wrong: l=%v g=%v", l, g)
	}
	// Linear region clips the gradient.
	_, g = HuberLoss(10, 0, 1.0)
	if g != 1 {
		t.Fatalf("huber gradient not clipped: %v", g)
	}
	_, g = HuberLoss(-10, 0, 1.0)
	if g != -1 {
		t.Fatalf("huber negative gradient not clipped: %v", g)
	}
}

func TestHuberGradientMatchesNumeric(t *testing.T) {
	f := func(p8, t8 int8) bool {
		p, tgt := float64(p8)/16, float64(t8)/16
		const eps = 1e-6
		lUp, _ := HuberLoss(p+eps, tgt, 1.0)
		lDn, _ := HuberLoss(p-eps, tgt, 1.0)
		_, g := HuberLoss(p, tgt, 1.0)
		num := (lUp - lDn) / (2 * eps)
		return math.Abs(num-g) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	mk := func() (*Net, []int, float64) {
		n := NewNet(Config{In: 4, Hidden: []int{6}, Out: 2}, tensor.NewRNG(5))
		return n, []int{1, 2}, 3.0
	}
	step := func(n *Net, active []int, target float64, opt Optimizer) float64 {
		q := n.Forward(active)
		loss, g := MSELoss(q[0], target)
		dQ := tensor.NewVec(2)
		dQ[0] = g
		n.ZeroGrad()
		n.Backward(dQ)
		opt.Step(n)
		return loss
	}
	for name, opt := range map[string]Optimizer{
		"sgd":     NewSGD(0.05, 0.9),
		"adam":    NewAdam(0.01),
		"rmsprop": NewRMSProp(0.005),
	} {
		n, active, target := mk()
		first := step(n, active, target, opt)
		var last float64
		for i := 0; i < 400; i++ {
			last = step(n, active, target, opt)
		}
		if last > first*0.05 {
			t.Fatalf("%s failed to reduce loss: first=%v last=%v", name, first, last)
		}
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	cases := []Config{
		{In: 0, Hidden: []int{4}, Out: 2},
		{In: 4, Hidden: nil, Out: 2},
		{In: 4, Hidden: []int{0}, Out: 2},
		{In: 4, Hidden: []int{4}, Out: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d did not panic: %+v", i, cfg)
				}
			}()
			NewNet(cfg, tensor.NewRNG(1))
		}()
	}
}

func TestReluKeepsOnlyPositives(t *testing.T) {
	negZero := math.Copysign(0, -1)
	in := tensor.Vec{1.5, -1.5, 0, negZero, math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64}
	want := tensor.Vec{1.5, 0, 0, 0, 0, 0, math.Inf(1), 0, math.SmallestNonzeroFloat64, 0, math.MaxFloat64}
	got := tensor.NewVec(len(in))
	got.Fill(7)
	relu(got, in)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("relu(%v) = %v, want %v", in[i], got[i], want[i])
		}
	}
}
