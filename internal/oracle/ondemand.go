package oracle

import (
	"fmt"
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
	truth *Truth // nil unless SetTruth (or DeriveTruth) supplied one

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
// have run and their results, in model order. Snapshot writers call this
// to persist the item's state.
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

// DeriveTruth computes a scene's ground truth by executing every model —
// the full-cost operation the Store performs per scene at Build time.
// Evaluation-only: deriving truth costs exactly the "no policy" schedule
// the framework exists to avoid.
func DeriveTruth(z *zoo.Zoo, scene *synth.Scene) *Truth {
	outputs := make([]zoo.Output, len(z.Models))
	for mi, m := range z.Models {
		outputs[mi] = m.Infer(scene)
	}
	truth, _ := deriveTruth(z, outputs)
	return &truth
}

// OnDemand is the lazy Executor: an optional precomputed base (the test
// split, say) extended by externally ingested items that are executed
// on demand, model by model. Indices [0, base.NumItems()) address the
// base; Add appends external items after it. Safe for concurrent use —
// the serving layer Adds and reads from many goroutines.
type OnDemand struct {
	z    *zoo.Zoo
	base *Store // may be nil: a purely external executor

	mu    sync.RWMutex
	items []*ExternalItem
}

var _ Executor = (*OnDemand)(nil)

// NewOnDemand returns an on-demand executor over the zoo, optionally
// layered on a precomputed base store (which must share the zoo).
func NewOnDemand(z *zoo.Zoo, base *Store) *OnDemand {
	if base != nil && base.Zoo != z {
		panic("oracle: on-demand base store built against a different zoo")
	}
	return &OnDemand{z: z, base: base}
}

// Add ingests one external item and returns its index.
func (o *OnDemand) Add(it *ExternalItem) int {
	if it == nil {
		panic("oracle: nil external item")
	}
	if it.z != o.z {
		panic("oracle: external item built against a different zoo")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.items = append(o.items, it)
	return o.baseLen() + len(o.items) - 1
}

func (o *OnDemand) baseLen() int {
	if o.base == nil {
		return 0
	}
	return o.base.NumItems()
}

// NumItems implements Executor.
func (o *OnDemand) NumItems() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.baseLen() + len(o.items)
}

// NumModels implements Executor.
func (o *OnDemand) NumModels() int { return len(o.z.Models) }

// Model implements Executor.
func (o *OnDemand) Model(m int) *zoo.Model { return o.z.Models[m] }

// item resolves an external index (panicking on out-of-range, matching
// the Store's behavior for bad scene indices).
func (o *OnDemand) item(i int) *ExternalItem {
	o.mu.RLock()
	defer o.mu.RUnlock()
	pos := i - o.baseLen()
	if pos < 0 || pos >= len(o.items) {
		panic(fmt.Sprintf("oracle: on-demand item index %d out of range", i))
	}
	return o.items[pos]
}

// Output implements Executor: precomputed for base items, lazy and
// memoized for ingested ones.
func (o *OnDemand) Output(i, m int) zoo.Output {
	if i < o.baseLen() {
		return o.base.Output(i, m)
	}
	return o.item(i).Output(m)
}

// Seed implements Executor.
func (o *OnDemand) Seed(i int) uint64 {
	if i < o.baseLen() {
		return o.base.Seed(i)
	}
	return o.item(i).scene.Seed
}

// Truth implements Executor: known for base items, usually nil for
// ingested ones.
func (o *OnDemand) Truth(i int) *Truth {
	if i < o.baseLen() {
		return o.base.Truth(i)
	}
	return o.item(i).Truth()
}
