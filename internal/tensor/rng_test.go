package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

// TestRNGSeedRestartsInPlace: Seed leaves nothing of the old stream
// behind, the cached normal deviate included.
func TestRNGSeedRestartsInPlace(t *testing.T) {
	a, b := NewRNG(7), NewRNG(42)
	a.Norm() // leaves a spare deviate cached
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Norm(), b.Norm(); x != y {
			t.Fatalf("reseeded generator diverged from a fresh one at step %d: %v vs %v", i, x, y)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("generators with different seeds collided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		x := r.Intn(5)
		if x < 0 || x >= 5 {
			t.Fatalf("Intn(5) returned %d", x)
		}
		seen[x] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) did not cover all values: %v", seen)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(21)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || seen[x] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[x] = true
		}
	}
}

func TestRNGChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(5)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("weighted choice ordering wrong: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.03 {
		t.Fatalf("weight-7 arm frequency %v too far from 0.7", frac)
	}
}

func TestRNGChoiceZeroWeightsUniform(t *testing.T) {
	r := NewRNG(6)
	counts := [4]int{}
	for i := 0; i < 4000; i++ {
		counts[r.Choice([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("arm %d never chosen under degenerate weights: %v", i, counts)
		}
	}
}

func TestRNGChoiceNegativeWeightIgnored(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		if got := r.Choice([]float64{-5, 0, 1}); got != 2 {
			t.Fatalf("Choice picked non-positive arm %d", got)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Split()
	// The child must not replay the parent stream.
	a, b := parent.Uint64(), child.Uint64()
	if a == b {
		t.Fatal("split child mirrors parent stream")
	}
}

func TestRNGRangeProperty(t *testing.T) {
	r := NewRNG(17)
	f := func(lo8, width8 uint8) bool {
		lo := float64(lo8)
		hi := lo + float64(width8) + 1
		x := r.Range(lo, hi)
		return x >= lo && x < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBoolExtremes(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1.01) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}
