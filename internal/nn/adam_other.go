//go:build !amd64

package nn

func adamPairs(val, grad, m, v []float64, c *adamCoef) { adamUpdateGo(val, grad, m, v, c) }
