package nn

import (
	"bytes"
	"math"
	"testing"

	"ams/internal/tensor"
)

// Deeper architectures (two hidden layers) exercise the full backward
// recursion through intermediate dense layers, which the single-hidden
// tests never reach.

func newDeepNet(dueling bool) *Net {
	return NewNet(Config{In: 10, Hidden: []int{12, 8}, Out: 4, Dueling: dueling},
		tensor.NewRNG(17))
}

func TestDeepForwardFinite(t *testing.T) {
	for _, dueling := range []bool{false, true} {
		n := newDeepNet(dueling)
		for _, active := range [][]int{nil, {0}, {1, 5, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}} {
			q := n.Forward(active)
			if len(q) != 4 {
				t.Fatalf("output size %d", len(q))
			}
			for _, v := range q {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite output (dueling=%v active=%v)", dueling, active)
				}
			}
		}
	}
}

func deepGradCheck(t *testing.T, dueling bool) {
	t.Helper()
	n := newDeepNet(dueling)
	active := []int{2, 7}
	const action = 1

	n.ZeroGrad()
	n.Forward(active)
	dQ := tensor.NewVec(4)
	dQ[action] = 1
	n.Backward(dQ)

	params := n.Params()
	checked := 0
	for pi, p := range params {
		stride := 1 + len(p.Val)/5
		for j := 0; j < len(p.Val); j += stride {
			want := numericalGrad(n, active, action, &params[pi].Val[j])
			got := p.Grad[j]
			if math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("deep grad mismatch (dueling=%v) param %d idx %d: %v vs %v",
					dueling, pi, j, got, want)
			}
			checked++
		}
	}
	if checked < 25 {
		t.Fatalf("deep gradient check only covered %d coordinates", checked)
	}
}

func TestDeepGradCheckPlain(t *testing.T)   { deepGradCheck(t, false) }
func TestDeepGradCheckDueling(t *testing.T) { deepGradCheck(t, true) }

func TestDeepLearnsXORLikeMapping(t *testing.T) {
	// Inputs {0},{1},{0,1},{} map to classes 1,1,0,0 — not linearly
	// separable over the two input bits, so a working hidden stack is
	// required.
	n := NewNet(Config{In: 2, Hidden: []int{16, 8}, Out: 2}, tensor.NewRNG(3))
	opt := NewAdam(0.02)
	cases := []struct {
		active []int
		class  int
	}{
		{[]int{0}, 1}, {[]int{1}, 1}, {[]int{0, 1}, 0}, {nil, 0},
	}
	rng := tensor.NewRNG(5)
	for step := 0; step < 3000; step++ {
		c := cases[rng.Intn(len(cases))]
		q := n.Forward(c.active)
		dQ := tensor.NewVec(2)
		for i := range dQ {
			want := 0.0
			if i == c.class {
				want = 1.0
			}
			dQ[i] = q[i] - want
		}
		n.ZeroGrad()
		n.Backward(dQ)
		opt.Step(n)
	}
	for _, c := range cases {
		_, got := n.Forward(c.active).Max()
		if got != c.class {
			t.Fatalf("XOR-like case %v misclassified as %d", c.active, got)
		}
	}
}

func TestDeepSaveLoadRoundTrip(t *testing.T) {
	n := newDeepNet(true)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	qa := n.Forward([]int{1, 4}).Clone()
	qb := m.Forward([]int{1, 4}).Clone()
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("deep round trip differs")
		}
	}
}

func TestDeepNumParams(t *testing.T) {
	n := newDeepNet(false)
	want := 10*12 + 12 + 12*8 + 8 + 8*4 + 4
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}
