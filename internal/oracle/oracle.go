// Package oracle provides the execution substrate the schedulers run on.
//
// Its historical core is the precomputed Store: the "no policy" ground
// truth the paper's evaluation relies on — the output of every model on
// every image of a dataset, stored once ("We executed all 30 models on 5
// datasets and stored the output labels and confidences"). Deployment,
// however, labels *incoming* data whose outputs nobody has precomputed,
// so the package now abstracts execution behind the narrow Executor
// interface with two implementations: the Store (precomputed, with
// ground truth) and an external item's own one-item view (ondemand.go:
// lazy per-model inference over one ingested scene, memoized, usually no
// ground truth). The Tracker — the labeling-state bookkeeping that both
// DRL training and every policy evaluation loop consume — runs over
// either.
package oracle

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// Truth is the valuable-label ground truth of one item: the per-label
// truth values (profit-weighted best confidence across all models) and
// their sum, the denominator of the recall rate. Externally ingested
// items usually have no Truth — computing one requires executing every
// model, which is exactly what scheduling avoids.
type Truth struct {
	LabelValue map[int]float64 // valuable label -> its truth value
	TotalValue float64         // sum of LabelValue
}

// Executor is the narrow contract every scheduler-facing execution layer
// implements: per-item model outputs plus per-model costs. The Store
// serves precomputed outputs; an ExternalItem's Executor runs zoo
// inference lazily on its one item. All executors must be safe for
// concurrent readers (the serving layer calls Output from many
// goroutines).
type Executor interface {
	// NumItems is the number of addressable items, fixed for the
	// executor's lifetime.
	NumItems() int
	// NumModels is the size of the model zoo.
	NumModels() int
	// Model returns the m-th model (costs, name, supported labels).
	Model(m int) *zoo.Model
	// Output returns model m's output on item i, executing the model if
	// the executor is lazy. Repeated calls agree (outputs are memoized
	// or precomputed).
	Output(i, m int) zoo.Output
	// Truth returns item i's ground truth, or nil when it is unknown.
	Truth(i int) *Truth
	// Seed returns item i's scene noise seed — the item's identity: the
	// same from the store and from the item's own executor.
	Seed(i int) uint64
}

// Store holds the precomputed execution results for one scene collection.
type Store struct {
	Zoo    *zoo.Zoo
	Scenes []synth.Scene

	outputs [][]zoo.Output // [scene][model]

	// Derived per-scene ground truth.
	truths     []Truth
	modelValue [][]float64 // [scene][model]: static true output value
}

var _ Executor = (*Store)(nil)

// Build executes every model on every scene once and indexes the results.
func Build(z *zoo.Zoo, scenes []synth.Scene) *Store {
	if len(scenes) == 0 {
		panic("oracle: empty scene collection")
	}
	st := &Store{
		Zoo:        z,
		Scenes:     scenes,
		outputs:    make([][]zoo.Output, len(scenes)),
		truths:     make([]Truth, len(scenes)),
		modelValue: make([][]float64, len(scenes)),
	}
	for i := range scenes {
		st.outputs[i] = make([]zoo.Output, len(z.Models))
		for mi, m := range z.Models {
			st.outputs[i][mi] = m.Infer(&scenes[i])
		}
		st.truths[i], st.modelValue[i] = deriveTruth(z, st.outputs[i])
	}
	return st
}

// deriveTruth reduces one item's full set of model outputs to its ground
// truth and per-model static values. A valuable label's value is its
// profit-weighted confidence (f in Eq. 1 with p_i = profit_i * conf).
func deriveTruth(z *zoo.Zoo, outputs []zoo.Output) (Truth, []float64) {
	modelValue := make([]float64, len(z.Models))
	lv := make(map[int]float64)
	for mi := range z.Models {
		for _, lc := range outputs[mi].Labels {
			if lc.Conf < zoo.ValuableThreshold {
				continue
			}
			v := float64(z.Vocab.Label(lc.ID).Profit * lc.Conf)
			modelValue[mi] += v
			if v > lv[lc.ID] {
				lv[lc.ID] = v
			}
		}
	}
	// Sum in sorted label order so the total is bit-identical across
	// runs (map iteration order is randomized).
	ids := make([]int, 0, len(lv))
	for id := range lv {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var total float64
	for _, id := range ids {
		total += lv[id]
	}
	return Truth{LabelValue: lv, TotalValue: total}, modelValue
}

// NumScenes returns the number of stored scenes.
func (st *Store) NumScenes() int { return len(st.Scenes) }

// NumItems implements Executor.
func (st *Store) NumItems() int { return len(st.Scenes) }

// NumModels returns the number of models in the zoo.
func (st *Store) NumModels() int { return len(st.Zoo.Models) }

// Model implements Executor.
func (st *Store) Model(m int) *zoo.Model { return st.Zoo.Models[m] }

// Output returns the precomputed output of model m on scene i.
func (st *Store) Output(i, m int) zoo.Output { return st.outputs[i][m] }

// Truth implements Executor: the store knows every scene's ground truth.
func (st *Store) Truth(i int) *Truth { return &st.truths[i] }

// Seed implements Executor.
func (st *Store) Seed(i int) uint64 { return st.Scenes[i].Seed }

// TotalValue returns the summed truth value of every valuable label of
// scene i (the denominator of the recall rate).
func (st *Store) TotalValue(i int) float64 { return st.truths[i].TotalValue }

// ModelValue returns the static true output value of model m on scene i:
// the sum of confidences of its valuable output labels, ignoring overlap
// with other models. The paper's optimal policy ranks models by this.
func (st *Store) ModelValue(i, m int) float64 { return st.modelValue[i][m] }

// OptimalOrder returns model indices in descending order of true output
// value on scene i, breaking ties by ascending execution time so the
// cheaper model runs first.
func (st *Store) OptimalOrder(i int) []int {
	order := make([]int, st.NumModels())
	for m := range order {
		order[m] = m
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := st.modelValue[i][order[a]], st.modelValue[i][order[b]]
		if va != vb {
			return va > vb
		}
		return st.Zoo.Models[order[a]].TimeMS < st.Zoo.Models[order[b]].TimeMS
	})
	return order
}

// ValuableModels returns the models that emit at least one valuable label
// on scene i — the executions the ideal "optimal policy" of the paper's
// §II would perform.
func (st *Store) ValuableModels(i int) []int {
	var ms []int
	for m := range st.Zoo.Models {
		if st.modelValue[i][m] > 0 {
			ms = append(ms, m)
		}
	}
	return ms
}

// OptimalTimeMS returns the summed time of the valuable models of scene i
// (the "optimal policy" cost).
func (st *Store) OptimalTimeMS(i int) float64 {
	var t float64
	for _, m := range st.ValuableModels(i) {
		t += st.Zoo.Models[m].TimeMS
	}
	return t
}

// Tracker is the labeling state of one item while models execute, the
// one per-item state scheduling decisions are made from: which labels
// have been emitted (at any confidence — this sorted set is the DRL
// observation), which models ran, which are in flight (Algorithm 2 takes
// a model out of the candidate set M at launch), and — when the item's
// ground truth is known — how much valuable value has been recalled.
// Reset starts the next item on the same storage, so an executor that
// keeps one tracker labels item after item without growing it again.
type Tracker struct {
	ex    Executor
	item  int
	truth *Truth // nil when the item's ground truth is unknown

	recalled []int // valuable labels emitted at >= threshold: few per item, so scanned
	status   []modelStatus
	state    []int           // sorted emitted label IDs (the sparse DRL state)
	fresh    []zoo.LabelConf // Execute's result, reused by the next Execute

	recalledValue float64
	executedCount int
	inFlightCount int
}

// modelStatus is where one model stands in an item's schedule, in the
// order a model passes through (before relies on it).
type modelStatus uint8

const (
	idle     modelStatus = iota // a candidate
	inFlight                    // launched, output not visible yet
	executed
)

// NewTracker starts an empty labeling state for item i of the executor.
func NewTracker(ex Executor, i int) *Tracker {
	t := new(Tracker)
	t.Reset(ex, i)
	return t
}

// Reset empties the labeling state and points it at item i of the
// executor, keeping the tracker's storage for the new item.
func (t *Tracker) Reset(ex Executor, i int) {
	if i < 0 || i >= ex.NumItems() {
		panic(fmt.Sprintf("oracle: item index %d out of range", i))
	}
	status := t.status[:0]
	if n := ex.NumModels(); cap(status) < n {
		status = make([]modelStatus, n)
	} else {
		status = status[:n]
		clear(status)
	}
	*t = Tracker{
		ex:       ex,
		item:     i,
		truth:    ex.Truth(i),
		recalled: t.recalled[:0],
		status:   status,
		state:    t.state[:0],
		fresh:    t.fresh[:0],
	}
}

// Release drops the tracker's references to its item — the executor and
// the ground truth — so a tracker kept for the next item does not retain
// the last one. Only Reset may follow.
func (t *Tracker) Release() { t.ex, t.truth = nil, nil }

// Seed returns the tracked item's identity (Executor.Seed).
func (t *Tracker) Seed() uint64 { return t.ex.Seed(t.item) }

// HasTruth reports whether the item's ground truth is known, i.e.
// whether Recall and MarginalValue are meaningful.
func (t *Tracker) HasTruth() bool { return t.truth != nil }

// ExecutedCount returns how many models have run.
func (t *Tracker) ExecutedCount() int { return t.executedCount }

// Launch records that the executor started model m; false when m has
// already run or is in flight. An executor that runs one model at a time
// may skip Launch and call Execute directly.
func (t *Tracker) Launch(m int) bool {
	if t.status[m] != idle {
		return false
	}
	t.status[m] = inFlight
	t.inFlightCount++
	return true
}

// Candidate reports whether a policy may pick model m next: it has
// neither run nor been launched.
func (t *Tracker) Candidate(m int) bool { return t.status[m] == idle }

// InFlightCount returns how many models are in flight.
func (t *Tracker) InFlightCount() int { return t.inFlightCount }

// CandidateCount returns how many models are candidates.
func (t *Tracker) CandidateCount() int {
	return len(t.status) - t.executedCount - t.inFlightCount
}

// Execute runs (or replays) model m on the item, folds its output into
// the state, and returns that output and the newly emitted labels — O'(m,d)
// in the paper: labels not previously output by any executed model, at
// any confidence. The fresh labels are in a buffer the tracker reuses:
// they are valid until the next Execute. A launched model is no longer
// in flight afterwards. Executing a model twice panics; the scheduler
// must never do that.
func (t *Tracker) Execute(m int) (zoo.Output, []zoo.LabelConf) {
	switch t.status[m] {
	case executed:
		panic(fmt.Sprintf("oracle: model %d executed twice on item %d", m, t.item))
	case inFlight:
		t.inFlightCount--
	}
	t.status[m] = executed
	t.executedCount++
	out := t.ex.Output(t.item, m)
	t.fresh = t.fresh[:0]
	for _, lc := range out.Labels {
		if t.insertState(lc.ID) {
			t.fresh = append(t.fresh, lc)
		}
		if t.truth != nil && lc.Conf >= zoo.ValuableThreshold && !slices.Contains(t.recalled, lc.ID) {
			t.recalled = append(t.recalled, lc.ID)
			t.recalledValue += t.truth.LabelValue[lc.ID]
		}
	}
	return out, t.fresh
}

// insertState adds a label to the sparse state, kept sorted for
// deterministic comparison and network input, and reports whether it was
// new.
func (t *Tracker) insertState(id int) bool {
	pos := sort.SearchInts(t.state, id)
	if pos < len(t.state) && t.state[pos] == id {
		return false
	}
	t.state = append(t.state, 0)
	copy(t.state[pos+1:], t.state[pos:])
	t.state[pos] = id
	return true
}

// State returns the sorted emitted-label indices (the DRL observation).
// The slice aliases tracker storage; callers must copy before mutating.
func (t *Tracker) State() []int { return t.state }

// Recall returns the fraction of total valuable value recalled so far.
// Items with known truth and no valuable labels report full recall;
// items without ground truth report 0 — check HasTruth to tell "nothing
// recalled" from "nothing to measure against".
func (t *Tracker) Recall() float64 {
	if t.truth == nil {
		return 0
	}
	if t.truth.TotalValue <= 0 {
		return 1
	}
	return t.recalledValue / t.truth.TotalValue
}

// MarginalValue returns the valuable value model m would add to the
// current state: the summed truth value of its valuable labels that have
// not been recalled yet. This is f(S ∪ {m}) − f(S) with perfect knowledge
// and backs the optimal* policy. It requires ground truth (and, on a
// lazy executor, forces m's execution); without truth it returns 0.
func (t *Tracker) MarginalValue(m int) float64 {
	if t.truth == nil {
		return 0
	}
	var v float64
	for _, lc := range t.ex.Output(t.item, m).Labels {
		if lc.Conf >= zoo.ValuableThreshold && !slices.Contains(t.recalled, lc.ID) {
			v += t.truth.LabelValue[lc.ID]
		}
	}
	return v
}

// Unexecuted yields the models that have not run — in flight or not —
// in model-ID order.
func (t *Tracker) Unexecuted() iter.Seq[int] { return t.before(executed) }

// Candidates yields the models a policy may pick next — neither run nor
// in flight — in model-ID order.
func (t *Tracker) Candidates() iter.Seq[int] { return t.before(inFlight) }

// before yields the models whose status precedes limit, in model-ID
// order, straight off the status table: ranging over it allocates
// nothing.
func (t *Tracker) before(limit modelStatus) iter.Seq[int] {
	return func(yield func(int) bool) {
		for m, st := range t.status {
			if st < limit && !yield(m) {
				return
			}
		}
	}
}
