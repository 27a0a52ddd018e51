package tensor

import (
	"fmt"
	"math"
	"testing"
)

// edgeValue draws a value that is often an edge of float64 arithmetic:
// a signed zero, a subnormal, or a magnitude near 1e300, whose products
// overflow to an infinity and whose sums of opposite infinities are NaN.
func edgeValue(r *RNG) float64 {
	edges := [...]float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1.1e-308, 1e300, -1e300, 1.7e300, -0.9e300}
	if r.Bool(0.3) {
		return edges[r.Intn(len(edges))]
	}
	return r.Norm()
}

// The row kernels are assembly on amd64, and their results are held to
// the bits of plain Go loops that sum every output in the same order.
// TestFrozenMatchesNetForwardBitForBit and the root
// TestPredictValuesMatchesNetForward compare two callers of these same
// kernels, so a kernel that changed its rounding would pass them
// wherever both callers send a column through it (they differ only
// where the frozen head's 32 columns fill two blocks and the training
// heads' 31 and 1 leave a Go tail); this test and
// TestTrainPinsSavedAgentBytes are what catch it everywhere. Widths
// 1-40 put the columns on both sides of the 16-wide blocks, and row
// counts 0-130 put the inputs on both sides of the 64-row gathers. The
// kernels allocate nothing, and a bad sparse index panics before the
// assembly reads a row.
func TestRowKernelsMatchGoReferenceBitForBit(t *testing.T) {
	t.Run("bits", rowKernelBits)
	t.Run("allocations", rowKernelAllocs)
	t.Run("bad sparse index", rowKernelBadIndex)
}

func rowKernelBits(t *testing.T) {
	r := NewRNG(56)
	for cols := 1; cols <= 40; cols++ {
		for rows := 0; rows <= 130; rows++ {
			m := NewMat(rows, cols)
			for i := range m.Data {
				m.Data[i] = edgeValue(r)
			}
			x, y := NewVec(rows), NewVec(cols)
			for i := range x {
				if r.Bool(0.5) {
					x[i] = edgeValue(r)
				}
			}
			for j := range y {
				y[j] = edgeValue(r)
			}
			var active []int // any order, repeats included
			if rows > 0 {
				for k := r.Intn(rows + 1); k > 0; k-- {
					active = append(active, r.Intn(rows))
				}
			}
			name := fmt.Sprintf("%dx%d", rows, cols)

			want, got := NewVec(cols), NewVec(cols)
			for j := range want {
				for i := range x {
					if x[i] != 0 {
						want[j] += float64(x[i] * m.Data[i*cols+j])
					}
				}
			}
			m.MulVecTransInto(got, x)
			checkBits(t, name+" MulVecTransInto", got, want)

			want.Zero()
			for j := range want {
				for _, i := range active {
					want[j] += m.Data[i*cols+j]
				}
			}
			m.SumRowsSparseInto(got, active)
			checkBits(t, name+" SumRowsSparseInto", got, want)

			// AddScaledRows accumulates into what out holds, over the
			// same unordered, repeating rows.
			start := NewVec(cols)
			for j := range start {
				start[j] = edgeValue(r)
			}
			want.Zero()
			for j := range want {
				want[j] = start[j]
				for _, i := range active {
					want[j] += float64(x[i] * m.Data[i*cols+j])
				}
			}
			copy(got, start)
			m.AddScaledRows(got, active, x)
			checkBits(t, name+" AddScaledRows", got, want)

			wantOut, gotOut := NewVec(rows), NewVec(rows)
			for i := range wantOut {
				for j := range y {
					wantOut[i] += float64(m.Data[i*cols+j] * y[j])
				}
			}
			m.MulVecInto(gotOut, y)
			checkBits(t, name+" MulVecInto", gotOut, wantOut)

			a := edgeValue(r)
			wantM := m.Data.Clone()
			for i := range x {
				if s := a * x[i]; s != 0 {
					for j := range y {
						wantM[i*cols+j] += float64(s * y[j])
					}
				}
			}
			m.AddOuter(a, x, y)
			checkBits(t, name+" AddOuter", m.Data, wantM)
		}
	}

	// The block functions alone, accumulating into values already in out,
	// over rows at a stride wider than the block.
	for n := 0; n <= 130; n++ {
		stride := 16 + r.Intn(8)
		m, x := NewVec(130*stride), NewVec(130)
		for i := range m {
			m[i] = edgeValue(r)
		}
		for i := range x {
			x[i] = edgeValue(r)
		}
		rows := make([]int, n)
		for k := range rows {
			rows[k] = r.Intn(130)
		}
		start := NewVec(16)
		for c := range start {
			start[c] = edgeValue(r)
		}
		want, got := start.Clone(), start.Clone()
		mulAddRows16Go(want, m, stride, rows, x)
		mulAddRows16(got, m, stride, rows, x)
		checkBits(t, fmt.Sprintf("mulAddRows16 over %d rows", n), got, want)
		want, got = start.Clone(), start.Clone()
		addRows16Go(want, m, stride, rows)
		addRows16(got, m, stride, rows)
		checkBits(t, fmt.Sprintf("addRows16 over %d rows", n), got, want)
	}
}

func checkBits(t *testing.T, what string, got, want Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), the Go reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func rowKernelAllocs(t *testing.T) {
	r := NewRNG(3)
	m := randomMat(r, 130, 40)
	x, y, out, outRows := NewVec(130), NewVec(40), NewVec(40), NewVec(130)
	for i := range x {
		if r.Bool(0.5) {
			x[i] = r.Norm()
		}
	}
	active := []int{3, 64, 0, 129, 7}
	for name, kernel := range map[string]func(){
		"MulVecTransInto":   func() { m.MulVecTransInto(out, x) },
		"SumRowsSparseInto": func() { m.SumRowsSparseInto(out, active) },
		"AddScaledRows":     func() { m.AddScaledRows(out, active, x) },
		"MulVecInto":        func() { m.MulVecInto(outRows, y) },
		"AddOuter":          func() { m.AddOuter(0.5, x, y) },
	} {
		if n := testing.AllocsPerRun(20, kernel); n != 0 {
			t.Errorf("%s allocates %v times a call", name, n)
		}
	}
}

// An index far outside the matrix would send the assembly to read
// gigabytes past the weights and fault; the range check must panic
// first, with the index and the range it left, and before out is
// touched.
func rowKernelBadIndex(t *testing.T) {
	m := NewMat(5, 32)
	for i := range m.Data {
		m.Data[i] = 1
	}
	x := Vec{1, 1, 1, 1, 1}
	for _, bad := range []int{1 << 30, -1 << 30, 5, -1} {
		want := fmt.Sprintf("tensor: sparse index %d out of range [0,5)", bad)
		for name, kernel := range map[string]func(out Vec){
			"SumRowsSparseInto": func(out Vec) { m.SumRowsSparseInto(out, []int{0, 4, bad}) },
			"AddScaledRows":     func(out Vec) { m.AddScaledRows(out, []int{0, 4, bad}, x) },
		} {
			out := NewVec(32)
			var got any
			func() {
				defer func() { got = recover() }()
				kernel(out)
			}()
			if got != want {
				t.Fatalf("%s, index %d: panic %v, want %q", name, bad, got, want)
			}
			if out[0] != 0 {
				t.Fatalf("%s, index %d: rows were added before the panic", name, bad)
			}
		}
	}
}

// A matrix whose Data is shorter than Rows x Cols says less than the row
// kernels assume; it is refused before any row is read.
func TestRowKernelsRefuseShortData(t *testing.T) {
	m := &Mat{Rows: 4, Cols: 16, Data: NewVec(3 * 16)}
	defer func() {
		if recover() == nil {
			t.Fatal("a 4x16 matrix over 48 floats was read")
		}
	}()
	m.MulVecTransInto(NewVec(16), Vec{0, 0, 0, 1})
}
