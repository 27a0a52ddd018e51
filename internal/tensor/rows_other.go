//go:build !amd64

package tensor

func mulAddRows16(out, m []float64, stride int, rows []int, x []float64) {
	mulAddRows16Go(out, m, stride, rows, x)
}

func addRows16(out, m []float64, stride int, rows []int) { addRows16Go(out, m, stride, rows) }
