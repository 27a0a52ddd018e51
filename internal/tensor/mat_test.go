package tensor

import (
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

func TestMatSumColsSparseMatchesDense(t *testing.T) {
	r := NewRNG(31)
	m := NewMat(5, 8)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	active := []int{1, 4, 7}
	x := NewVec(8)
	for _, j := range active {
		x[j] = 1
	}
	dense := NewVec(5)
	m.MulVecInto(dense, x)
	sparse := NewVec(5)
	m.SumColsSparseInto(sparse, active)
	for i := range dense {
		if !almostEq(dense[i], sparse[i]) {
			t.Fatalf("sparse path diverges from dense at %d: %v vs %v", i, sparse[i], dense[i])
		}
	}
}

func TestMatSumColsSparsePanicsOutOfRange(t *testing.T) {
	m := NewMat(2, 2)
	out := NewVec(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range sparse index did not panic")
		}
	}()
	m.SumColsSparseInto(out, []int{2})
}

// Property: for random matrices and sparse one-hot-sum inputs, the sparse
// and dense products agree.
func TestMatSparseDenseProperty(t *testing.T) {
	r := NewRNG(77)
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed))
		rows := 1 + rr.Intn(6)
		cols := 1 + rr.Intn(10)
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Norm()
		}
		var active []int
		x := NewVec(cols)
		for j := 0; j < cols; j++ {
			if rr.Bool(0.3) {
				active = append(active, j)
				x[j] = 1
			}
		}
		dense, sparse := NewVec(rows), NewVec(rows)
		m.MulVecInto(dense, x)
		m.SumColsSparseInto(sparse, active)
		for i := range dense {
			if math.Abs(dense[i]-sparse[i]) > 1e-9 {
				return false
			}
		}
		return true
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

// The input-major kernels sum every output in the order the output-major
// ones do, so the results are the same bits, not merely close — for any
// number of addends around the four-row groups and the 64-input blocks.
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
				r.Shuffle(active) // the sparse sum follows active's order
				m.SumColsSparseInto(want, active)
				mt.SumRowsSparseInto(got, active)
				if !sameBits(got, want) {
					t.Fatalf("in=%d out=%d: SumRowsSparseInto %v, SumColsSparseInto %v", in, outs, got, want)
				}
			}
		}
	}
}

func TestMatSumRowsSparsePanicsLikeSumCols(t *testing.T) {
	m := NewMat(3, 5)
	for _, bad := range []int{-1, 5} {
		var msgs [2]any
		for k, f := range []func(){
			func() { m.SumColsSparseInto(NewVec(3), []int{0, 1, 2, 3, bad}) },
			func() { m.Transpose().SumRowsSparseInto(NewVec(3), []int{0, 1, 2, 3, bad}) },
		} {
			func() {
				defer func() { msgs[k] = recover() }()
				f()
			}()
		}
		if msgs[0] == nil || msgs[0] != msgs[1] {
			t.Fatalf("index %d: SumColsSparseInto panics with %v, SumRowsSparseInto with %v", bad, msgs[0], msgs[1])
		}
	}
}
