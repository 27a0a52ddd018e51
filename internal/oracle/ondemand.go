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
	outs  []zoo.Output
	done  []bool
	truth *Truth // nil unless SetTruth supplied one

	// hook, when set, observes every freshly computed output — the
	// persistence hook a durable corpus installs to journal memoized
	// results as they land. It is invoked outside the item lock (the
	// hook typically takes its own locks and performs I/O) and never for
	// Preload'ed or replayed outputs.
	hook func(m int, out zoo.Output)
}

// NewExternalItem wraps a scene for on-demand execution against the zoo.
func NewExternalItem(z *zoo.Zoo, scene synth.Scene) *ExternalItem {
	return &ExternalItem{
		z:     z,
		scene: scene,
		outs:  make([]zoo.Output, len(z.Models)),
		done:  make([]bool, len(z.Models)),
	}
}

// Scene returns the item's latent content.
func (it *ExternalItem) Scene() *synth.Scene { return &it.scene }

// Output runs model m on the item if it has not run yet and returns the
// (memoized) result.
func (it *ExternalItem) Output(m int) zoo.Output {
	it.mu.Lock()
	if it.done[m] {
		out := it.outs[m]
		it.mu.Unlock()
		return out
	}
	out := it.z.Models[m].Infer(&it.scene)
	it.outs[m] = out
	it.done[m] = true
	hook := it.hook
	it.mu.Unlock()
	// Outside the lock: the hook may take corpus locks that themselves
	// call back into this item (eviction), so holding it here would
	// invert the lock order.
	if hook != nil {
		hook(m, out)
	}
	return out
}

// SetOutputHook installs the fresh-output observer (see the field doc).
// A durable corpus installs one per managed item; passing nil removes it.
func (it *ExternalItem) SetOutputHook(hook func(m int, out zoo.Output)) {
	it.mu.Lock()
	it.hook = hook
	it.mu.Unlock()
}

// Preload memoizes model m's output without executing it — the replay
// path: outputs recovered from a journal or snapshot short-circuit zoo
// inference. The hook is not invoked (the output is already persisted).
func (it *ExternalItem) Preload(m int, out zoo.Output) {
	it.mu.Lock()
	it.outs[m] = out
	it.done[m] = true
	it.mu.Unlock()
}

// Memos returns a copy of the item's memoized outputs: the models that
// have run and their results, in model order. Journal compaction calls
// this to persist the item's state.
func (it *ExternalItem) Memos() (models []int, outs []zoo.Output) {
	it.mu.Lock()
	defer it.mu.Unlock()
	for m, done := range it.done {
		if done {
			models = append(models, m)
			outs = append(outs, it.outs[m])
		}
	}
	return models, outs
}

// MemoCount returns how many model outputs are currently memoized.
func (it *ExternalItem) MemoCount() int {
	it.mu.Lock()
	defer it.mu.Unlock()
	n := 0
	for _, done := range it.done {
		if done {
			n++
		}
	}
	return n
}

// Evict drops the item's memoized outputs, reclaiming their memory. The
// scene stays, so a later Output re-runs the model — inference is a pure
// function of (scene, model), so the recomputed result is bit-identical
// to the evicted one (and a corpus additionally preserves the original on
// disk). Eviction is the caller's responsibility to sequence: the corpus
// only evicts items whose results are committed and no longer read.
func (it *ExternalItem) Evict() {
	it.mu.Lock()
	it.outs = make([]zoo.Output, len(it.z.Models))
	it.done = make([]bool, len(it.z.Models))
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
func (it *ExternalItem) Executor() Executor { return (*single)(it) }

// single is an ExternalItem seen as an Executor over exactly itself.
type single ExternalItem

func (s *single) NumItems() int              { return 1 }
func (s *single) NumModels() int             { return len(s.z.Models) }
func (s *single) Model(m int) *zoo.Model     { return s.z.Models[m] }
func (s *single) Output(_, m int) zoo.Output { return (*ExternalItem)(s).Output(m) }
func (s *single) Seed(int) uint64            { return s.scene.Seed }
func (s *single) Truth(int) *Truth           { return (*ExternalItem)(s).Truth() }
