package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecAddSubScale(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	v.Add(w)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add wrong: %v", v)
	}
}

func TestVecAXPYDot(t *testing.T) {
	v := Vec{2, 2.5}
	w := Vec{2, 3}
	if d := v.Dot(w); !almostEq(d, 2*2+2.5*3) {
		t.Fatalf("Dot wrong: %v", d)
	}
}

func TestVecMaxEmpty(t *testing.T) {
	var v Vec
	m, i := v.Max()
	if i != -1 || !math.IsInf(m, -1) {
		t.Fatalf("empty Max = (%v,%d)", m, i)
	}
}

func TestVecMax(t *testing.T) {
	v := Vec{-3, 7, 2, 7}
	m, i := v.Max()
	if m != 7 || i != 1 {
		t.Fatalf("Max = (%v,%d), want (7,1) first occurrence", m, i)
	}
}

func TestVecMeanSumNorm(t *testing.T) {
	v := Vec{3, 4}
	if v.Sum() != 7 {
		t.Fatalf("Sum wrong")
	}
	if v.Mean() != 3.5 {
		t.Fatalf("Mean wrong")
	}
	var empty Vec
	if empty.Mean() != 0 {
		t.Fatalf("empty Mean should be 0")
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Add did not panic")
		}
	}()
	Vec{1}.Add(Vec{1, 2})
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	out := NewVec(2)
	m.MulVecInto(out, Vec{1, 0, -1})
	if !almostEq(out[0], -2) || !almostEq(out[1], -2) {
		t.Fatalf("MulVec wrong: %v", out)
	}
}

func TestMatMulVecTrans(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	out := NewVec(3)
	m.MulVecTransInto(out, Vec{1, 2})
	// m^T * [1,2] = [1+8, 2+10, 3+12]
	if !almostEq(out[0], 9) || !almostEq(out[1], 12) || !almostEq(out[2], 15) {
		t.Fatalf("MulVecTrans wrong: %v", out)
	}
}

func TestMatAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter(2, Vec{1, 3}, Vec{4, 5})
	// 2 * [1,3]^T [4,5] = [[8,10],[24,30]]
	want := []float64{8, 10, 24, 30}
	for i, x := range m.Data {
		if !almostEq(x, want[i]) {
			t.Fatalf("AddOuter wrong: %v", m.Data)
		}
	}
}

// onesAt returns the binary vector of length n whose ones sit at active.
func onesAt(n int, active []int) Vec {
	x := NewVec(n)
	for _, j := range active {
		x[j] = 1
	}
	return x
}

// The sparse sum over ascending active inputs is the dense product with
// their 0/1 vector, to the bit; over any other order it adds the rows in
// that order.
func TestMatSumRowsSparseMatchesDense(t *testing.T) {
	r := NewRNG(31)
	m := randomMat(r, 8, 5) // input-major
	active := []int{1, 4, 7}
	dense, sparse := NewVec(5), NewVec(5)
	m.MulVecTransInto(dense, onesAt(8, active))
	m.SumRowsSparseInto(sparse, active)
	if !sameBits(sparse, dense) {
		t.Fatalf("sparse path %v, dense path %v", sparse, dense)
	}
	m.SumRowsSparseInto(sparse, []int{7, 1, 4})
	for i := range sparse {
		if want := (0 + m.Data[7*5+i]) + m.Data[1*5+i] + m.Data[4*5+i]; math.Float64bits(sparse[i]) != math.Float64bits(want) {
			t.Fatalf("output %d: %v, want the rows added in active order, %v", i, sparse[i], want)
		}
	}
}

// A sparse sum over the columns of an output-major matrix (Rows outputs x
// Cols inputs) is SumRowsSparseInto on its transpose, so an index is
// bounded by the input count, not the output count: 3 is refused here
// although the matrix has five rows.
func TestMatSumColsSparsePanicsOutOfRange(t *testing.T) {
	m := NewMat(5, 3)
	mt, out := m.Transpose(), NewVec(5)
	mt.SumRowsSparseInto(out, []int{0, 2})
	defer func() {
		if got, want := recover(), "tensor: sparse index 3 out of range [0,3)"; got != want {
			t.Fatalf("column 3 of a 5x3 matrix: panic %v, want %q", got, want)
		}
	}()
	mt.SumRowsSparseInto(out, []int{3})
}

// SumRowsSparseInto panics with the message the column-sum kernel it
// replaced gave: the offending index and the range it left, for an index
// below zero and one past the end, each after four valid indices.
func TestMatSumRowsSparsePanicsLikeSumCols(t *testing.T) {
	m := NewMat(5, 3)
	for _, bad := range []int{-1, 5} {
		want := fmt.Sprintf("tensor: sparse index %d out of range [0,5)", bad)
		var got any
		func() {
			defer func() { got = recover() }()
			m.SumRowsSparseInto(NewVec(3), []int{0, 1, 2, 3, bad})
		}()
		if got != want {
			t.Fatalf("index %d: SumRowsSparseInto panics with %v, want %q", bad, got, want)
		}
	}
}

// Property: for random input-major matrices and sparse binary inputs, the
// sparse sum and the dense product are the same bits.
func TestMatSparseDenseProperty(t *testing.T) {
	r := NewRNG(77)
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed))
		rows := 1 + rr.Intn(10)
		cols := 1 + rr.Intn(6)
		m := randomMat(r, rows, cols)
		var active []int
		for j := 0; j < rows; j++ {
			if rr.Bool(0.3) {
				active = append(active, j)
			}
		}
		dense, sparse := NewVec(cols), NewVec(cols)
		m.MulVecTransInto(dense, onesAt(rows, active))
		m.SumRowsSparseInto(sparse, active)
		return sameBits(sparse, dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomMat(r *RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	return m
}

func sameBits(a, b Vec) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// MulVecTransInto on an input-major matrix sums every output in the order
// MulVecInto does on its output-major transpose, so the results are the
// same bits, not merely close; SumRowsSparseInto is the same product with
// a 0/1 input. Both hold for any number of addends around the four-row
// groups and the 64-input blocks.
func TestInputMajorKernelsMatchOutputMajorBitForBit(t *testing.T) {
	r := NewRNG(13)
	for _, in := range []int{1, 3, 4, 5, 63, 64, 65, 130, 200} {
		for _, outs := range []int{1, 7, 32} {
			m := randomMat(r, outs, in) // output-major
			mt := m.Transpose()
			for trial := 0; trial < 6; trial++ {
				x := NewVec(in)
				var active []int
				for j := range x {
					if r.Bool(float64(trial) / 5) {
						x[j] = r.Norm()
						active = append(active, j)
					}
				}
				want, got := NewVec(outs), NewVec(outs)
				for j := range got {
					got[j] = 99 // the kernels must overwrite, not accumulate
				}
				m.MulVecInto(want, x)
				mt.MulVecTransInto(got, x)
				if !sameBits(got, want) {
					t.Fatalf("in=%d out=%d: MulVecTransInto %v, MulVecInto %v", in, outs, got, want)
				}
				m.MulVecInto(want, onesAt(in, active))
				mt.SumRowsSparseInto(got, active)
				if !sameBits(got, want) {
					t.Fatalf("in=%d out=%d: SumRowsSparseInto %v, MulVecInto %v", in, outs, got, want)
				}
			}
		}
	}
}
