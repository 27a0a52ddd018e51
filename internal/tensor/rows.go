package tensor

// The row kernels add up to 16 outputs' worth of weight rows at a time.
// Each output is summed in rows order, with a separate multiply and add
// and never a fused one, so an output's bits do not depend on which
// implementation ran: the amd64 assembly (rows_amd64.s, SSE2, the
// baseline every amd64 processor has) keeps 16 outputs in eight
// two-lane registers and reorders work only across them. Other
// architectures run the Go functions below, which the assembly is tested
// against.
//
// The callers prove every bound before the call, the assembly checks
// none: out holds 16 floats, every i in rows indexes x, and m[i*stride+c]
// exists for every such i and every c < 16.

// mulAddRows16Go adds x[i] * m[i*stride : i*stride+16] into out[:16] for
// each i in rows, in rows order.
func mulAddRows16Go(out, m []float64, stride int, rows []int, x []float64) {
	out = out[:16]
	for _, i := range rows {
		a, r := x[i], m[i*stride:i*stride+16]
		for c := range out {
			out[c] += float64(a * r[c])
		}
	}
}

// addRows16Go adds m[i*stride : i*stride+16] into out[:16] for each i in
// rows, in rows order.
func addRows16Go(out, m []float64, stride int, rows []int) {
	out = out[:16]
	for _, i := range rows {
		r := m[i*stride : i*stride+16]
		for c := range out {
			out[c] += r[c]
		}
	}
}
