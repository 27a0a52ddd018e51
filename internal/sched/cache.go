package sched

import "encoding/binary"

// CachedPredictor memoizes Q predictions keyed by the emitted-label set.
// Within one item's schedule the predictor-driven policies ask for the
// same state's values repeatedly — every launch of one parallel
// scheduling point, every serial re-ask after a memory stall, and every
// completion that emitted no fresh labels re-run Next on an unchanged
// state — and the Q network's forward pass is the dominant selection
// cost (the paper's Table III overhead). The cache turns those repeats
// into map hits.
//
// The private memo is invalidated by the owning policy's Reset, so it
// spans exactly one item's schedule: at most one entry per distinct
// labeling state the schedule visits (≤ one per executed model plus the
// empty state), which bounds memory without any eviction policy.
//
// An optional SharedCache (NewSharedCachedPredictor) extends the
// memoization across items and workers: concurrently served items visit
// overlapping labeling states — most schedules start from the empty
// state and early states recur constantly on a hot trace — and every
// worker reads the same frozen weights, so one worker's forward pass is
// every worker's answer. Hits fill the private memo, misses
// publish to the shared tier.
//
// Not safe for concurrent use — like the predictor it wraps, there is
// one per worker (the SharedCache itself is concurrency-safe).
type CachedPredictor struct {
	pred   Predictor
	memo   map[string][]float64
	key    []byte // scratch buffer for key encoding
	shared *SharedCache
}

// NewCachedPredictor wraps pred with a per-schedule memo.
func NewCachedPredictor(pred Predictor) *CachedPredictor {
	return &CachedPredictor{pred: pred, memo: make(map[string][]float64)}
}

// NewSharedCachedPredictor wraps pred with the per-schedule memo backed
// by a cross-item shared cache. All predictors sharing one cache must
// compute from identical weights — the cache stores values, not which
// network produced them. A nil shared is equivalent to
// NewCachedPredictor.
func NewSharedCachedPredictor(pred Predictor, shared *SharedCache) *CachedPredictor {
	return &CachedPredictor{pred: pred, memo: make(map[string][]float64), shared: shared}
}

// stateKey encodes a labeling state into buf as a byte key. State slices
// are sorted label IDs and uvarints are self-delimiting, so the encoding
// is injective for any vocabulary size. (An earlier fixed two-byte
// encoding truncated IDs to 16 bits, silently colliding states — and so
// serving wrong Q-values — once label IDs reached 65536.)
func stateKey(buf []byte, state []int) []byte {
	buf = buf[:0]
	for _, id := range state {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// Predict implements Predictor. The returned slice is owned by the cache
// and must not be mutated (policies only read it).
func (c *CachedPredictor) Predict(state []int) []float64 {
	c.key = stateKey(c.key, state)
	k := string(c.key)
	if q, ok := c.memo[k]; ok {
		return q
	}
	if c.shared != nil {
		if q, ok := c.shared.lookup(k); ok {
			c.memo[k] = q
			return q
		}
	}
	// The wrapped predictor's slice aliases network storage and is
	// invalidated by its next forward pass; the memo keeps a copy.
	q := append([]float64(nil), c.pred.Predict(state)...)
	c.memo[k] = q
	if c.shared != nil {
		c.shared.store(k, q)
	}
	return q
}

// Invalidate drops the private memo; policies call it from Reset so
// per-item state never leaks across items. The shared tier deliberately
// survives — its values are valid as long as the shared weights are
// (call SharedCache.Invalidate after retraining).
func (c *CachedPredictor) Invalidate() { clear(c.memo) }

// invalidatePrediction resets pred's memo when it carries one. Policies
// call this from Reset, so wrapping a policy's predictor in a
// CachedPredictor is all it takes to opt in to memoization.
func invalidatePrediction(pred Predictor) {
	if c, ok := pred.(*CachedPredictor); ok {
		c.Invalidate()
	}
}
