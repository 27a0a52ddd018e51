package oracle

import (
	"sync"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// ExternalItem is one externally ingested scene with lazily computed,
// memoized per-model outputs: the first Output(m) runs model m's
// inference, later calls replay the memo. The memo travels with the item,
// so labeling the same item on several surfaces (Label, a server, a
// batch) never re-executes a model. Safe for concurrent use.
type ExternalItem struct {
	z     *zoo.Zoo
	scene synth.Scene

	mu    sync.Mutex
	memo  []memoSlot // indexed by model; nil until the first Output or Preload and again after Evict
	truth *Truth     // nil unless SetTruth supplied one

	// hook, when set, is the item's owner — the corpus entry a durable
	// corpus installs: it journals every freshly computed output as it
	// lands (never Preload'ed or replayed ones) and each completed
	// schedule's commit. It is invoked outside the item lock (the hook
	// typically takes its own locks and performs I/O).
	hook itemHook
}

// memoSlot is one model's slot in an item's memo: the output, once run.
type memoSlot struct {
	out  zoo.Output
	done bool
}

// itemHook is an item's owner (see ExternalItem.hook). It is an
// interface, not a func, so an owner that keeps per-item state (a corpus
// entry) installs itself and allocates nothing to do so.
type itemHook interface {
	OutputComputed(m int, out zoo.Output)
	ScheduleCommitted(executed []int, scheduleMS float64) error
}

// NewExternalItem wraps a scene for on-demand execution against the zoo.
func NewExternalItem(z *zoo.Zoo, scene synth.Scene) *ExternalItem {
	return &ExternalItem{z: z, scene: scene}
}

// Scene returns the item's latent content.
func (it *ExternalItem) Scene() *synth.Scene { return &it.scene }

// Output runs model m on the item if it has not run yet and returns the
// (memoized) result.
func (it *ExternalItem) Output(m int) zoo.Output {
	it.mu.Lock()
	if it.memo != nil && it.memo[m].done {
		out := it.memo[m].out
		it.mu.Unlock()
		return out
	}
	out := it.z.Models[m].Infer(&it.scene)
	it.memoize(m, out)
	hook := it.hook
	it.mu.Unlock()
	// Outside the lock: the hook may take corpus locks that themselves
	// call back into this item (eviction), so holding it here would
	// invert the lock order.
	if hook != nil {
		hook.OutputComputed(m, out)
	}
	return out
}

// SetHook installs the item's owner: hook's OutputComputed(m, out) runs
// after every inference this item performs, outside the item lock, and
// never for Preload'ed or replayed outputs; its ScheduleCommitted runs
// when a schedule of the item commits through the item's Executor. A
// durable corpus installs each of its entries on the entry's item, so
// installing allocates nothing; passing nil removes the hook.
func (it *ExternalItem) SetHook(hook itemHook) {
	it.mu.Lock()
	it.hook = hook
	it.mu.Unlock()
}

// Preload memoizes model m's output without executing it — the replay
// path: outputs recovered from a journal or snapshot short-circuit zoo
// inference. The hook is not invoked (the output is already persisted).
func (it *ExternalItem) Preload(m int, out zoo.Output) {
	it.mu.Lock()
	it.memoize(m, out)
	it.mu.Unlock()
}

// memoize records model m's output, allocating the memo on first use.
// The caller holds it.mu.
func (it *ExternalItem) memoize(m int, out zoo.Output) {
	if it.memo == nil {
		it.memo = make([]memoSlot, len(it.z.Models))
	}
	it.memo[m] = memoSlot{out: out, done: true}
}

// Memos returns a copy of the item's memoized outputs: the models that
// have run and their results, in model order. Journal compaction calls
// this to persist the item's state.
func (it *ExternalItem) Memos() (models []int, outs []zoo.Output) {
	it.mu.Lock()
	defer it.mu.Unlock()
	for m, mm := range it.memo {
		if mm.done {
			models = append(models, m)
			outs = append(outs, mm.out)
		}
	}
	return models, outs
}

// MemoCount returns how many model outputs are currently memoized.
func (it *ExternalItem) MemoCount() int {
	it.mu.Lock()
	defer it.mu.Unlock()
	n := 0
	for _, mm := range it.memo {
		if mm.done {
			n++
		}
	}
	return n
}

// Evict drops the item's memoized outputs, reclaiming their memory and
// allocating nothing: the memo is allocated again by the next Output or
// Preload. The scene stays, so a later Output re-runs the model — inference is a pure
// function of (scene, model), so the recomputed result is bit-identical
// to the evicted one (and a corpus additionally preserves the original on
// disk). Eviction is the caller's responsibility to sequence: the corpus
// only evicts items whose results are committed and no longer read.
func (it *ExternalItem) Evict() {
	it.mu.Lock()
	it.memo = nil
	it.mu.Unlock()
}

// SetTruth attaches known ground truth to the item, enabling recall
// reporting — evaluation harnesses use this; production ingestion has no
// truth to attach.
func (it *ExternalItem) SetTruth(t *Truth) {
	it.mu.Lock()
	it.truth = t
	it.mu.Unlock()
}

// Truth returns the attached ground truth, or nil.
func (it *ExternalItem) Truth() *Truth {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.truth
}

// Executor returns the item as a one-item Executor: index 0 is the item.
// The view is the item itself under another method set, so handing it to
// a scheduler allocates nothing, and its outputs are the item's memo.
// The view also commits: a server that completes a schedule of it calls
// Commit, which the item's owner journals.
func (it *ExternalItem) Executor() Executor { return (*single)(it) }

// single is an ExternalItem seen as an Executor over exactly itself.
type single ExternalItem

func (s *single) NumItems() int              { return 1 }
func (s *single) NumModels() int             { return len(s.z.Models) }
func (s *single) Model(m int) *zoo.Model     { return s.z.Models[m] }
func (s *single) Output(_, m int) zoo.Output { return (*ExternalItem)(s).Output(m) }
func (s *single) Seed(int) uint64            { return s.scene.Seed }
func (s *single) Truth(int) *Truth           { return (*ExternalItem)(s).Truth() }

// Commit ends one schedule of the item: its owner journals the executed
// models and schedule time, and may evict the memo once no schedule
// holds it. An item without an owner has nothing to commit.
func (s *single) Commit(executed []int, scheduleMS float64) error {
	s.mu.Lock()
	hook := s.hook
	s.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook.ScheduleCommitted(executed, scheduleMS)
}
