package sched

import (
	"testing"
)

// countingPredictor counts forward passes and returns a state-dependent
// vector, reusing one backing slice like the real agent does.
type countingPredictor struct {
	calls int
	buf   []float64
}

func (p *countingPredictor) Predict(state []int) []float64 {
	p.calls++
	if p.buf == nil {
		p.buf = make([]float64, 4)
	}
	for i := range p.buf {
		p.buf[i] = float64(len(state)*10 + i)
	}
	return p.buf
}

// TestCachedPredictorMemoizesPerState: the memo holds the one state it
// was last asked about — all a schedule needs, since a labeling state
// only grows — in storage of its own.
func TestCachedPredictorMemoizesPerState(t *testing.T) {
	raw := &countingPredictor{}
	c := NewCachedPredictor(raw)

	a := c.Predict([]int{1, 5})
	b := c.Predict([]int{1, 5})
	if raw.calls != 1 {
		t.Fatalf("repeated ask on an unchanged state ran %d forward passes, want 1", raw.calls)
	}
	if &a[0] != &b[0] {
		t.Fatalf("cache returned different slices for the same state")
	}
	for i := range a {
		if a[i] != float64(2*10+i) {
			t.Fatalf("cached value %v at %d, want %v", a[i], i, float64(2*10+i))
		}
	}
	// The raw predictor reuses its buffer; the memo must have copied, and
	// must compare the caller's state by value, not by slice identity.
	raw.Predict([]int{1, 2, 3, 4})
	passes := raw.calls
	if got := c.Predict(append([]int(nil), 1, 5)); raw.calls != passes || got[0] != 20 {
		t.Fatalf("memo aliased the predictor's buffer or the state slice: %d new passes, value %v", raw.calls-passes, got[0])
	}

	// The state grew: a miss, whose values replace the remembered ones.
	d := c.Predict([]int{1, 5, 9})
	if raw.calls != passes+1 || d[0] != 30 {
		t.Fatalf("grown state ran %d forward passes (want 1) and read %v (want 30)", raw.calls-passes, d[0])
	}
	// A state that was left is forgotten — within an item it cannot recur.
	c.Predict([]int{1, 5})
	if raw.calls != passes+2 {
		t.Fatalf("the memo holds more than one state: %d forward passes, want 2", raw.calls-passes)
	}

	// Invalidate drops the memo: the same state recomputes.
	c.Invalidate()
	c.Predict([]int{1, 5})
	if raw.calls != passes+3 {
		t.Fatalf("post-invalidate ask ran %d forward passes, want 3", raw.calls-passes)
	}
}

// TestCachedPredictorAllocatesNothing pins the private tier's cost: once
// its two buffers have grown to the schedule's longest state, neither a
// repeated nor a new state allocates.
func TestCachedPredictorAllocatesNothing(t *testing.T) {
	c := NewCachedPredictor(&countingPredictor{})
	states := [][]int{{1, 5, 9, 12}, {1, 5, 9}, {1, 5}}
	c.Predict(states[0])
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		c.Predict(states[i%len(states)]) // a new state every call
	}); n != 0 {
		t.Fatalf("Predict on a new state allocated %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Predict(states[0]) }); n != 0 {
		t.Fatalf("Predict on a repeated state allocated %v times, want 0", n)
	}
}

// TestPoliciesInvalidateCacheOnReset: a predictor-driven policy wired
// with a CachedPredictor must clear the memo at Reset, so per-item
// memoization never leaks across items (the network may be retrained
// between them).
func TestPoliciesInvalidateCacheOnReset(t *testing.T) {
	raw := &countingPredictor{}
	c := NewCachedPredictor(raw)
	p := NewCostQGreedy(c, store.Zoo)

	p.Reset(0)
	c.Predict(nil)
	c.Predict(nil)
	if raw.calls != 1 {
		t.Fatalf("memo inactive: %d calls", raw.calls)
	}
	p.Reset(1)
	c.Predict(nil)
	if raw.calls != 2 {
		t.Fatalf("Reset did not invalidate the memo: %d calls, want 2", raw.calls)
	}
}

// echoPredictor returns a vector derived from the state's contents (not
// just its length), so colliding cache keys surface as wrong values.
type echoPredictor struct{ calls int }

func (p *echoPredictor) Predict(state []int) []float64 {
	p.calls++
	var sum float64
	for _, id := range state {
		sum += float64(id)
	}
	return []float64{sum}
}

// TestCacheKeysDistinguishHighLabelIDs is the regression test for the
// shared tier's key encoding (the private tier compares states directly
// and has no key): the old fixed two-byte encoding truncated label IDs
// to 16 bits, so the states {65536} and {0} collided and the second ask
// silently returned the first state's Q-values.
func TestCacheKeysDistinguishHighLabelIDs(t *testing.T) {
	shared := NewSharedCache(0)
	raw := &echoPredictor{}
	// A fresh predictor per ask, so every ask misses the private tier and
	// is answered by the shared one.
	ask := func(state ...int) float64 { return NewSharedCachedPredictor(raw, shared).Predict(state)[0] }
	high, low := ask(65536), ask(0)
	if raw.calls != 2 {
		t.Fatalf("states {65536} and {0} shared a cache key: %d forward passes, want 2", raw.calls)
	}
	if high != 65536 || low != 0 {
		t.Fatalf("colliding keys served wrong Q-values: got %v and %v", high, low)
	}
	if ask(65536) != 65536 || ask(0) != 0 || raw.calls != 2 {
		t.Fatalf("shared tier did not answer the repeated states: %d forward passes", raw.calls)
	}
	// Multi-ID states stay unambiguous too (uvarints are self-delimiting;
	// echoPredictor sums IDs, so compare forward-pass counts, not values).
	ask(1, 65537)
	ask(65538)
	if raw.calls != 4 {
		t.Fatalf("a multi-ID state collided with a single-ID state: %d forward passes, want 4", raw.calls)
	}
}

// TestSharedCacheSpansPredictors: a state computed by one worker's
// predictor is a hit for every other predictor wired to the same shared
// cache — the cross-item, cross-worker promotion of the memo.
func TestSharedCacheSpansPredictors(t *testing.T) {
	shared := NewSharedCache(0)
	raw1, raw2 := &countingPredictor{}, &countingPredictor{}
	c1 := NewSharedCachedPredictor(raw1, shared)
	c2 := NewSharedCachedPredictor(raw2, shared)

	state := []int{2, 7}
	c1.Predict(state)
	if got := c2.Predict(state); got[0] != float64(2*10) {
		t.Fatalf("shared hit returned %v", got[0])
	}
	if raw2.calls != 0 {
		t.Fatalf("second predictor ran %d forward passes for a shared state, want 0", raw2.calls)
	}
	// Private invalidation (per-item Reset) must not drop the shared tier.
	c2.Invalidate()
	c2.Predict(state)
	if raw2.calls != 0 {
		t.Fatalf("per-item Invalidate dropped the shared tier: %d forward passes", raw2.calls)
	}
	hits, misses, size := shared.Stats()
	if hits < 2 || misses != 1 || size != 1 {
		t.Fatalf("shared cache stats hits=%d misses=%d size=%d, want >=2/1/1", hits, misses, size)
	}
	// Retraining invalidation empties the shared tier.
	shared.Invalidate()
	c1.Invalidate()
	c1.Predict(state)
	if raw1.calls != 2 {
		t.Fatalf("SharedCache.Invalidate left stale entries: %d forward passes, want 2", raw1.calls)
	}
}

// TestSharedCacheBounded: the capacity is a hard bound, enforced by
// evicting an arbitrary resident entry per insert.
func TestSharedCacheBounded(t *testing.T) {
	shared := NewSharedCache(4)
	raw := &countingPredictor{}
	c := NewSharedCachedPredictor(raw, shared)
	for i := 0; i < 20; i++ {
		c.Predict([]int{i})
	}
	if _, _, size := shared.Stats(); size > 4 {
		t.Fatalf("shared cache grew to %d entries, capacity 4", size)
	}
}
