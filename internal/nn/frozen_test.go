package nn

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"ams/internal/tensor"
)

func mustFreeze(tb testing.TB, n *Net) *Frozen {
	tb.Helper()
	f, err := Freeze(n)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// randomState draws k distinct sorted indices from [0,in).
func randomState(rng *tensor.RNG, in, k int) []int {
	state := rng.Perm(in)[:k]
	sort.Ints(state)
	return state
}

func sameBits(a, b tensor.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestFrozenMatchesNetForwardBitForBit(t *testing.T) {
	rng := tensor.NewRNG(41)
	for _, dueling := range []bool{false, true} {
		for _, hidden := range [][]int{{24}, {24, 16}} {
			for trial := 0; trial < 8; trial++ {
				in, out := 20+rng.Intn(40), 2+rng.Intn(9)
				n := NewNet(Config{In: in, Hidden: hidden, Out: out, Dueling: dueling}, rng)
				// Biases start at zero; give them values so their place
				// in the summation order is exercised.
				for _, p := range n.Params() {
					for i := range p.Val {
						p.Val[i] += rng.Range(-0.5, 0.5)
					}
				}
				f := mustFreeze(t, n)
				scratch := f.NewScratch()
				all := make([]int, in)
				for i := range all {
					all[i] = i
				}
				states := [][]int{{}, all}
				for k := 0; k < 12; k++ {
					states = append(states, randomState(rng, in, rng.Intn(in+1)))
				}
				for _, state := range states {
					want := n.Forward(state)
					got := f.Forward(scratch, state)
					if !sameBits(got, want) {
						t.Fatalf("dueling=%v hidden=%v state %v: frozen %v, net %v", dueling, hidden, state, got, want)
					}
				}
			}
		}
	}
}

func TestFrozenIsASnapshot(t *testing.T) {
	n := newTestNet(true)
	f := mustFreeze(t, n)
	scratch := f.NewScratch()
	before := f.Forward(scratch, []int{1, 5}).Clone()
	for _, p := range n.Params() {
		for i := range p.Val {
			p.Val[i] = 0.25
		}
	}
	if got := f.Forward(scratch, []int{1, 5}); !sameBits(got, before) {
		t.Fatal("changing the net after Freeze moved the frozen view's output")
	}
}

func TestFrozenRejectsBadLabelIndex(t *testing.T) {
	n := newTestNet(true)
	f := mustFreeze(t, n)
	for _, bad := range []int{-1, n.In()} {
		want := fmt.Sprintf("tensor: sparse index %d out of range [0,%d)", bad, n.In())
		for name, forward := range map[string]func(){
			"net":    func() { n.Forward([]int{0, bad}) },
			"frozen": func() { f.Forward(f.NewScratch(), []int{0, bad}) },
		} {
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Errorf("%s, index %d: panic %v, want %q", name, bad, r, want)
					}
				}()
				forward()
			}()
		}
	}
}

func TestFrozenRejectsWrongScratch(t *testing.T) {
	f := mustFreeze(t, newTestNet(false))
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a scratch of the wrong length")
		}
	}()
	f.Forward(tensor.NewVec(3), nil)
}

func TestFreezeRejectsNonFiniteWeights(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		n := newDeepNet(true)
		params := n.Params()
		last := params[len(params)-1].Val
		last[len(last)-1] = bad
		if _, err := Freeze(n); err == nil || !strings.Contains(err.Error(), "freeze") {
			t.Errorf("Freeze with a %v weight: err = %v", bad, err)
		}
	}
}

func TestFrozenForwardDoesNotAllocate(t *testing.T) {
	f := mustFreeze(t, newDeepNet(true))
	scratch := f.NewScratch()
	state := []int{0, 3, 7}
	f.Forward(scratch, state)
	if avg := testing.AllocsPerRun(100, func() { f.Forward(scratch, state) }); avg != 0 {
		t.Fatalf("Forward on a warm scratch allocates %v times per call", avg)
	}
}

func TestFrozenSharedAcrossGoroutines(t *testing.T) {
	rng := tensor.NewRNG(5)
	n := newDeepNet(true)
	f := mustFreeze(t, n)
	var states [][]int
	var want []tensor.Vec
	for i := 0; i < 64; i++ {
		s := randomState(rng, n.In(), rng.Intn(n.In()+1))
		states = append(states, s)
		want = append(want, n.Forward(s).Clone())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := f.NewScratch()
			for round := 0; round < 20; round++ {
				for k := range states {
					i := (k + g*7) % len(states)
					if got := f.Forward(scratch, states[i]); !sameBits(got, want[i]) {
						t.Errorf("goroutine %d, state %d: %v, serial answer %v", g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCloneCopiesWeightsWithoutSharing(t *testing.T) {
	n := newDeepNet(true)
	c := n.Clone()
	if !sameBits(c.Forward([]int{2, 4}), n.Forward([]int{2, 4})) {
		t.Fatal("clone computes different Q-values")
	}
	for _, p := range c.Params() {
		for i := range p.Val {
			p.Val[i] = 1
		}
	}
	if sameBits(c.Forward([]int{2, 4}), n.Forward([]int{2, 4})) {
		t.Fatal("clone shares weight storage with the original")
	}
}

// The paper's shape: 1104 labels -> 256 hidden -> 30 models + END, dueling,
// over labeling states of 0-15 labels.
func paperBench(b *testing.B) (*Net, [][]int) {
	rng := tensor.NewRNG(7)
	n := NewNet(Config{In: 1104, Hidden: []int{256}, Out: 31, Dueling: true}, rng)
	states := make([][]int, 64)
	for i := range states {
		states[i] = randomState(rng, n.In(), i%16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return n, states
}

var benchSink tensor.Vec

func BenchmarkNetForward(b *testing.B) {
	n, states := paperBench(b)
	for i := 0; i < b.N; i++ {
		benchSink = n.Forward(states[i%len(states)])
	}
}

func BenchmarkFrozenForward(b *testing.B) {
	n, states := paperBench(b)
	f := mustFreeze(b, n)
	scratch := f.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.Forward(scratch, states[i%len(states)])
	}
}
