package tensor

// mulAddRows16 is mulAddRows16Go in SSE2 assembly.
//
//go:noescape
func mulAddRows16(out, m []float64, stride int, rows []int, x []float64)

// addRows16 is addRows16Go in SSE2 assembly.
//
//go:noescape
func addRows16(out, m []float64, stride int, rows []int)
