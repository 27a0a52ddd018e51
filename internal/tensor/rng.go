// Package tensor provides the small dense linear-algebra kernels and the
// deterministic random-number generator used throughout the AMS
// reproduction. Everything is float64 and allocation-conscious: the hot
// paths (network forward/backward) reuse caller-provided buffers.
//
// Layout rule: weights are stored input-major (Rows inputs x Cols
// outputs), for training and inference alike. SumRowsSparseInto adds
// one contiguous row per active input, AddScaledRows one scaled row per
// listed non-zero activation (MulVecTransInto lists them itself), AddOuter accumulates a weight gradient row by row, and
// MulVecInto takes the gradient back to the inputs as one dot product per
// row. The row additions run 16 outputs at a time through two block
// functions, SSE2 assembly on amd64 and Go elsewhere, that sum every
// output in the same order, with the same roundings, as a plain loop.
//
// Every product added to something is written float64(a*b): the
// conversion rounds the product on its own, so no compiler fuses it into
// the add (arm64's would), and results have the same bits on every
// architecture.
package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**, seeded through splitmix64). Every stochastic component in
// the repository draws from an explicitly seeded RNG so that experiments
// are reproducible bit-for-bit.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts the generator, in place, at the stream NewRNG(seed)
// would produce.
func (r *RNG) Seed(seed uint64) {
	*r = RNG{}
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent child generator. Useful for handing each
// subsystem its own stream without correlation.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1). The division by 2^53 is exact
// and compiles to a multiplication; the outer conversion rounds it on its
// own, so no caller's add fuses with it.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform integer in [0,n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo,hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Norm returns a standard normal deviate (Box-Muller with caching).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return float64(u * m)
}

// NormMeanStd returns a normal deviate with the given mean and stddev.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + float64(std*r.Norm())
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm fills a permutation of [0,n) into a fresh slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes the slice in place (Fisher-Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
