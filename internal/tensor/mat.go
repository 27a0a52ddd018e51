package tensor

import "fmt"

// Mat is a dense row-major matrix: element (i,j) lives at Data[i*Cols+j].
type Mat struct {
	Rows, Cols int
	Data       Vec
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimensions")
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears all elements.
func (m *Mat) Zero() { m.Data.Zero() }

// MulVecInto computes out = m * x (out length Rows, x length Cols).
func (m *Mat) MulVecInto(out, x Vec) {
	assertLen(len(x), m.Cols)
	assertLen(len(out), m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(x)
	}
}

// MulVecTransInto computes out = m^T * x (out length Cols, x length Rows):
// every non-zero x[i] adds x[i] * row i into out, in ascending i, so out[j]
// is summed in exactly the order of the dot product of column j with x.
// Rows whose x[i] is zero are skipped, which is exact for finite m.
//
// Half of a ReLU layer's activations are zero in no predictable pattern,
// so a branch per row would mispredict on every other one; instead the
// non-zero indices of a block are gathered without branching and their
// rows are added four at a time, which also loads and stores out once per
// four rows instead of once per row.
func (m *Mat) MulVecTransInto(out, x Vec) {
	assertLen(len(x), m.Rows)
	assertLen(len(out), m.Cols)
	out.Zero()
	var nzBuf [64]int
	for base := 0; base < len(x); base += len(nzBuf) {
		block := x[base:min(base+len(nzBuf), len(x))]
		n := 0
		for i, xi := range block {
			nzBuf[n] = base + i
			if xi != 0 {
				n++
			}
		}
		nz := nzBuf[:n]
		for ; len(nz) >= 4; nz = nz[4:] {
			a, b, c, d := x[nz[0]], x[nz[1]], x[nz[2]], x[nz[3]]
			ra, rb, rc, rd := m.Row(nz[0])[:len(out)], m.Row(nz[1])[:len(out)], m.Row(nz[2])[:len(out)], m.Row(nz[3])[:len(out)]
			for j := range out {
				out[j] = (((out[j] + a*ra[j]) + b*rb[j]) + c*rc[j]) + d*rd[j]
			}
		}
		for _, i := range nz {
			a, ra := x[i], m.Row(i)[:len(out)]
			for j := range out {
				out[j] += a * ra[j]
			}
		}
	}
}

// AddOuter accumulates m += a * x y^T where x has length Rows and y length
// Cols. It is the rank-1 update used by backprop weight gradients.
func (m *Mat) AddOuter(a float64, x, y Vec) {
	assertLen(len(x), m.Rows)
	assertLen(len(y), m.Cols)
	for i := 0; i < m.Rows; i++ {
		s := a * x[i]
		if s == 0 {
			continue
		}
		row := m.Row(i)
		for j, yj := range y {
			row[j] += s * yj
		}
	}
}

// SumColsSparseInto computes out = sum over j in active of column j of m,
// in active order. It is the training network's sparse first layer: m is
// output-major (Rows outputs x Cols inputs), so column j holds the weights
// leaving input j and a binary input with ones at active sums those
// columns. out must have length Rows.
func (m *Mat) SumColsSparseInto(out Vec, active []int) {
	assertLen(len(out), m.Rows)
	out.Zero()
	for _, j := range active {
		if j < 0 || j >= m.Cols {
			panicSparse(j, m.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			out[i] += m.Data[i*m.Cols+j]
		}
	}
}

// SumRowsSparseInto computes out = sum over j in active of row j of m, in
// active order: SumColsSparseInto over the transpose, with every addend
// contiguous. out must have length Cols.
func (m *Mat) SumRowsSparseInto(out Vec, active []int) {
	assertLen(len(out), m.Cols)
	out.Zero()
	for _, j := range active {
		if j < 0 || j >= m.Rows {
			panicSparse(j, m.Rows)
		}
	}
	// Four rows at a time: out is loaded and stored once per four addends.
	for ; len(active) >= 4; active = active[4:] {
		ra, rb, rc, rd := m.Row(active[0])[:len(out)], m.Row(active[1])[:len(out)], m.Row(active[2])[:len(out)], m.Row(active[3])[:len(out)]
		for i := range out {
			out[i] = (((out[i] + ra[i]) + rb[i]) + rc[i]) + rd[i]
		}
	}
	for _, j := range active {
		row := m.Row(j)[:len(out)]
		for i := range out {
			out[i] += row[i]
		}
	}
}

func panicSparse(j, n int) {
	panic(fmt.Sprintf("tensor: sparse index %d out of range [0,%d)", j, n))
}

// Transpose returns a new Cols x Rows matrix holding m's transpose.
func (m *Mat) Transpose() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, w := range m.Row(i) {
			t.Data[j*m.Rows+i] = w
		}
	}
	return t
}
