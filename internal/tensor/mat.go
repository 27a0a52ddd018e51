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

// MulVecInto computes out = m * x (out length Rows, x length Cols). Each
// output is one dot product summed by ascending column, as Vec.Dot sums
// it; four rows run at once so their independent chains overlap instead
// of each waiting on its own add latency.
func (m *Mat) MulVecInto(out, x Vec) {
	assertLen(len(x), m.Cols)
	assertLen(len(out), m.Rows)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		ra, rb, rc, rd := m.Row(i)[:len(x)], m.Row(i + 1)[:len(x)], m.Row(i + 2)[:len(x)], m.Row(i + 3)[:len(x)]
		var a, b, c, d float64
		for j, xj := range x {
			a += float64(ra[j] * xj)
			b += float64(rb[j] * xj)
			c += float64(rc[j] * xj)
			d += float64(rd[j] * xj)
		}
		out[i], out[i+1], out[i+2], out[i+3] = a, b, c, d
	}
	for ; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(x)
	}
}

// blocks16 returns how many of m's leading columns the 16-wide row
// kernels cover, after proving the bound they rely on: every row's 16
// floats from any covered column lie inside Data. A matrix without rows
// has nothing to add and no Data to point the kernels at, so none.
func (m *Mat) blocks16() int {
	assertLen(len(m.Data), m.Rows*m.Cols)
	if m.Rows == 0 {
		return 0
	}
	return m.Cols &^ 15
}

// MulVecTransInto computes out = m^T * x (out length Cols, x length Rows):
// every non-zero x[i] adds x[i] * row i into out, in ascending i, so out[j]
// is summed in exactly the order of the dot product of column j with x.
// Rows whose x[i] is zero are skipped, which is exact for finite m.
//
// Half of a ReLU layer's activations are zero in no predictable pattern,
// so a branch per row would mispredict on every other one; instead the
// non-zero indices of each 64 inputs are gathered without branching and
// added by the kernel behind AddScaledRows.
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
		m.addScaledRows(out, nzBuf[:n], x)
	}
}

// AddScaledRows adds x[i] * row i of m into out for each i in rows, in
// rows order (out length Cols, x length Rows). It is a dense layer's
// product over the inputs a caller has already found non-zero. Every
// index is range-checked before any row is read.
func (m *Mat) AddScaledRows(out Vec, rows []int, x Vec) {
	assertLen(len(x), m.Rows)
	assertLen(len(out), m.Cols)
	for _, i := range rows {
		if i < 0 || i >= m.Rows {
			panicSparse(i, m.Rows)
		}
	}
	m.addScaledRows(out, rows, x)
}

// addScaledRows is AddScaledRows without the checks. Each 16-column
// block of out takes all of rows in one mulAddRows16 call; the columns
// past the last block, when there are any, take them four rows at a
// time, which loads and stores out once per four rows instead of once
// per row.
func (m *Mat) addScaledRows(out Vec, rows []int, x Vec) {
	blocks := m.blocks16()
	for j := 0; j < blocks; j += 16 {
		mulAddRows16(out[j:j+16], m.Data[j:], m.Cols, rows, x)
	}
	if blocks == len(out) {
		return
	}
	tail := out[blocks:]
	for ; len(rows) >= 4; rows = rows[4:] {
		a, b, c, d := x[rows[0]], x[rows[1]], x[rows[2]], x[rows[3]]
		ra, rb, rc, rd := m.Row(rows[0])[blocks:len(out)], m.Row(rows[1])[blocks:len(out)], m.Row(rows[2])[blocks:len(out)], m.Row(rows[3])[blocks:len(out)]
		for j := range tail {
			tail[j] = (((tail[j] + float64(a*ra[j])) + float64(b*rb[j])) + float64(c*rc[j])) + float64(d*rd[j])
		}
	}
	for _, i := range rows {
		a, ra := x[i], m.Row(i)[blocks:len(out)]
		for j := range tail {
			tail[j] += float64(a * ra[j])
		}
	}
}

// AddOuter accumulates m += a * x y^T where x has length Rows and y length
// Cols. It is the rank-1 update used by backprop weight gradients. Rows
// whose a*x[i] is zero are skipped, gathered without a branch as in
// MulVecTransInto; every other row adds a*x[i] * y, one 16-column block
// per mulAddRows16 call, and its columns past the last block in Go.
func (m *Mat) AddOuter(a float64, x, y Vec) {
	assertLen(len(x), m.Rows)
	assertLen(len(y), m.Cols)
	blocks := m.blocks16()
	var (
		nzBuf [64]int
		sBuf  [64]float64
		only  [1]int // the one addend row: y, at stride 0
	)
	for base := 0; base < len(x); base += len(nzBuf) {
		block := x[base:min(base+len(nzBuf), len(x))]
		n := 0
		for i, xi := range block {
			s := a * xi
			nzBuf[n], sBuf[n] = base+i, s
			if s != 0 {
				n++
			}
		}
		for k, i := range nzBuf[:n] {
			row := m.Row(i)
			for j := 0; j < blocks; j += 16 {
				mulAddRows16(row[j:j+16], y[j:], 0, only[:], sBuf[k:k+1])
			}
			for j, yj := range y[blocks:] {
				row[blocks+j] += float64(sBuf[k] * yj)
			}
		}
	}
}

// SumRowsSparseInto computes out = sum over j in active of row j of m, in
// active order. It is a sparse first layer: m is input-major (Rows inputs
// x Cols outputs), so a binary input with ones at active adds one
// contiguous row per active input. out must have length Cols. Every
// index is range-checked before any row is read.
func (m *Mat) SumRowsSparseInto(out Vec, active []int) {
	assertLen(len(out), m.Cols)
	out.Zero()
	for _, j := range active {
		if j < 0 || j >= m.Rows {
			panicSparse(j, m.Rows)
		}
	}
	blocks := m.blocks16()
	for j := 0; j < blocks; j += 16 {
		addRows16(out[j:j+16], m.Data[j:], m.Cols, active)
	}
	if blocks == len(out) {
		return
	}
	// Four rows at a time: the tail is loaded and stored once per four
	// addends.
	tail := out[blocks:]
	for ; len(active) >= 4; active = active[4:] {
		ra, rb, rc, rd := m.Row(active[0])[blocks:len(out)], m.Row(active[1])[blocks:len(out)], m.Row(active[2])[blocks:len(out)], m.Row(active[3])[blocks:len(out)]
		for i := range tail {
			tail[i] = (((tail[i] + ra[i]) + rb[i]) + rc[i]) + rd[i]
		}
	}
	for _, j := range active {
		row := m.Row(j)[blocks:len(out)]
		for i := range tail {
			tail[i] += row[i]
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
