package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Zero sets every element to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Add adds w element-wise into v. Panics on length mismatch.
func (v Vec) Add(w Vec) {
	assertLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// Dot returns the inner product <v,w>.
func (v Vec) Dot(w Vec) float64 {
	assertLen(len(v), len(w))
	var s float64
	for i := range v {
		s += float64(v[i] * w[i])
	}
	return s
}

// Sum returns the sum of all elements.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean (0 for the empty vector).
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the maximum element and its index. For the empty vector it
// returns (-Inf, -1).
func (v Vec) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

func assertLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
