package nn

import "math"

// Adam's rule runs two elements at a time through SSE2 assembly on amd64
// (adam_amd64.s) and one at a time through the Go reference below
// elsewhere and for an odd last element. Both take the same steps in the
// same order, each rounded on its own:
//
//	m' = β₁·m + (1−β₁)·g
//	v' = β₂·v + ((1−β₂)·g)·g
//	val' = val − (lr·(m'/bc1)) / (√(v'/bc2) + ε)
//
// with a separate multiply and add and never a fused one, so a weight's
// bits do not depend on which implementation ran. MULPD, ADDPD, DIVPD,
// SQRTPD and SUBPD round each lane as MULSD, ADDSD, DIVSD, SQRTSD and
// SUBSD round a scalar.

// adamCoef holds one step's constants, in the order adam_amd64.s loads
// them.
type adamCoef struct {
	beta1, oneMinusBeta1 float64
	beta2, oneMinusBeta2 float64
	bc1, bc2             float64 // bias corrections 1−β₁ᵗ and 1−β₂ᵗ
	lr, eps              float64
}

// adamUpdate applies Adam's rule to every element of val, given its
// gradient grad and its moments m and v, which it updates in place.
func adamUpdate(val, grad, m, v []float64, c *adamCoef) {
	grad, m, v = grad[:len(val)], m[:len(val)], v[:len(val)]
	n := len(val) &^ 1
	adamPairs(val[:n], grad[:n], m[:n], v[:n], c)
	adamUpdateGo(val[n:], grad[n:], m[n:], v[n:], c)
}

// adamUpdateGo is the Go reference: Adam's rule, one element after
// another. Each product added to something is converted to float64, which
// rounds it on its own, so no compiler fuses it into the add.
func adamUpdateGo(val, grad, m, v []float64, c *adamCoef) {
	for j := range val {
		g := grad[j]
		m[j] = float64(c.beta1*m[j]) + float64(c.oneMinusBeta1*g)
		v[j] = float64(c.beta2*v[j]) + float64(c.oneMinusBeta2*g*g)
		mhat := m[j] / c.bc1
		vhat := v[j] / c.bc2
		val[j] -= c.lr * mhat / (math.Sqrt(vhat) + c.eps)
	}
}
