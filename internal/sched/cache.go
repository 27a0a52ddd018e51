package sched

import (
	"encoding/binary"
	"slices"
)

// CachedPredictor memoizes the Q prediction of the labeling state it
// was last asked about. Within one item's schedule the predictor-driven
// policies ask for the same state's values repeatedly — every launch of
// one parallel scheduling point, every serial re-ask after a memory
// stall, and every completion that emitted no fresh labels re-run Next
// on an unchanged state — and the Q network's forward pass is the
// dominant selection cost (the paper's Table III overhead).
//
// One remembered state is all the memo needs: a labeling state only
// grows within an item, so a state that was left never comes back and
// repeats are always consecutive asks. The owning policy's Reset drops
// it, so it never spans two items. States are compared directly and the
// values live in one reused buffer, so the private memo allocates nothing.
//
// An optional SharedCache (NewSharedCachedPredictor) extends the
// memoization across items and workers: concurrently served items visit
// overlapping labeling states — most schedules start from the empty
// state and early states recur constantly on a hot trace — and every
// worker reads the same frozen weights, so one worker's forward pass is
// every worker's answer. It is consulted only when the remembered state
// does not match; misses publish to it.
//
// Not safe for concurrent use — like the predictor it wraps, there is
// one per worker (the SharedCache itself is concurrency-safe).
type CachedPredictor struct {
	pred  Predictor
	valid bool  // a state is remembered
	state []int // the remembered labeling state (a copy)
	// q holds its values: this predictor's reused buffer, or — shared is
	// fixed at construction — always a shared-tier slice, never written.
	q      []float64
	key    []byte // scratch buffer for the shared tier's key
	shared *SharedCache
}

// NewSharedCachedPredictor wraps pred with a per-schedule memo, backed by
// a cross-item shared cache unless shared is nil. All predictors sharing
// one cache must compute from identical weights — the cache stores
// values, not which network produced them.
func NewSharedCachedPredictor(pred Predictor, shared *SharedCache) *CachedPredictor {
	return &CachedPredictor{pred: pred, shared: shared}
}

// stateKey encodes a labeling state into buf as the shared tier's byte
// key. State slices are sorted label IDs and uvarints are
// self-delimiting, so the encoding is injective for any vocabulary size.
// (An earlier fixed two-byte encoding truncated IDs to 16 bits, silently
// colliding states — and so serving wrong Q-values — once label IDs
// reached 65536.)
func stateKey(buf []byte, state []int) []byte {
	buf = buf[:0]
	for _, id := range state {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// Predict implements Predictor. The returned slice is owned by the cache:
// read-only, and valid until the next Predict (policies read it within
// one Next).
func (c *CachedPredictor) Predict(state []int) []float64 {
	if c.valid && slices.Equal(c.state, state) {
		return c.q
	}
	c.state, c.valid = append(c.state[:0], state...), true
	if c.shared == nil {
		// The wrapped predictor's slice aliases network storage and is
		// invalidated by its next forward pass; the memo keeps a copy.
		c.q = append(c.q[:0], c.pred.Predict(state)...)
		return c.q
	}
	c.key = stateKey(c.key, state)
	q, ok := c.shared.lookup(c.key)
	if !ok {
		// Published values outlive this predictor's next pass and are
		// read by other workers: a copy of their own.
		q = slices.Clone(c.pred.Predict(state))
		c.shared.store(c.key, q)
	}
	c.q = q
	return q
}

// Invalidate drops the private memo; policies call it from Reset so
// per-item state never leaks across items. The shared tier deliberately
// survives — its values are valid as long as the shared weights are, and
// a server builds a fresh SharedCache for the agent it serves.
func (c *CachedPredictor) Invalidate() { c.valid = false }

// invalidatePrediction resets pred's memo when it carries one. Policies
// call this from Reset, so wrapping a policy's predictor in a
// CachedPredictor is all it takes to opt in to memoization.
func invalidatePrediction(pred Predictor) {
	if c, ok := pred.(*CachedPredictor); ok {
		c.Invalidate()
	}
}
