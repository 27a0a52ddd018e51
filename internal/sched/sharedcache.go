package sched

import "sync"

// DefaultSharedCacheSize bounds a SharedCache built with capacity <= 0.
// At ~30 float64s plus a short key per entry, the default tops out
// around 20 MB.
const DefaultSharedCacheSize = 1 << 16

// SharedCache is the cross-item, cross-worker tier of the Q-prediction
// memo: a bounded, concurrency-safe map from labeling state to the
// frozen network's Q-values. It is valid because serving never trains —
// every worker reads the same weights and computes identical values for
// identical states, so a state any worker has visited is an answer for
// all of them, on this item or the next. Keys are the injective uvarint encoding of the
// sorted emitted-label IDs (stateKey).
//
// The bound is enforced by dropping one arbitrary resident entry per
// insert once full: O(1), no recency bookkeeping on the hit path, and
// hot states (the empty state, early-schedule states) are re-inserted
// on their next miss anyway.
type SharedCache struct {
	mu       sync.Mutex
	memo     map[string][]float64
	capacity int
	hits     int64
	misses   int64
}

// NewSharedCache builds a cache holding at most capacity states
// (DefaultSharedCacheSize when capacity <= 0).
func NewSharedCache(capacity int) *SharedCache {
	if capacity <= 0 {
		capacity = DefaultSharedCacheSize
	}
	return &SharedCache{memo: make(map[string][]float64), capacity: capacity}
}

// lookup returns the cached Q-values for a state key. The returned slice
// is shared and must not be mutated (the CachedPredictor contract).
func (c *SharedCache) lookup(key string) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, ok := c.memo[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return q, ok
}

// store publishes a computed prediction, evicting one arbitrary entry
// when the cache is full. First writer wins: concurrent workers compute
// identical values for one state, so overwriting would be pure churn.
func (c *SharedCache) store(key string, q []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.memo[key]; ok {
		return
	}
	if len(c.memo) >= c.capacity {
		for k := range c.memo {
			delete(c.memo, k)
			break
		}
	}
	c.memo[key] = q
}

// Stats returns the hit/miss counters and the current entry count.
func (c *SharedCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.memo)
}
