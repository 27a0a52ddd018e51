package nn

// adamPairs is adamUpdateGo in SSE2 assembly, two elements per pass. Every
// slice holds the same even number of elements; the assembly checks none.
//
//go:noescape
func adamPairs(val, grad, m, v []float64, c *adamCoef)
