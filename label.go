package ams

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ams/internal/core"
	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// Agent is a trained model-value predictor ready to drive scheduling.
type Agent struct {
	inner *core.Agent
}

// Algorithm returns the DRL variant the agent was trained with.
func (a *Agent) Algorithm() Algorithm { return a.inner.Algo }

// TrainedOn returns the dataset profile name used for training.
func (a *Agent) TrainedOn() string { return a.inner.Dataset }

// Save writes the agent to a file.
func (a *Agent) Save(path string) error { return a.inner.SaveFile(path) }

// LoadAgent reads an agent previously written with Save.
func LoadAgent(path string) (*Agent, error) {
	inner, err := core.LoadAgentFile(path)
	if err != nil {
		return nil, err
	}
	return &Agent{inner: inner}, nil
}

// workerPredictor returns one worker's predictor: a fork of the agent —
// the shared frozen network, a private scratch — behind the per-schedule
// Q-prediction memo, so repeated policy asks on an unchanged labeling
// state replay the cached forward pass instead of re-running it. A
// non-nil shared cache additionally spans the memo across items and
// workers — valid because every fork reads the same frozen weights, so
// one worker's forward pass answers the same labeling state anywhere.
func (a *Agent) workerPredictor(shared *sched.SharedCache) sched.Predictor {
	return sched.NewSharedCachedPredictor(a.inner.Fork(), shared)
}

// PredictValues returns the agent's current value estimate for every
// model given the set of label IDs already emitted for the item. It runs
// on the agent's own scratch: concurrent callers need separate agents.
func (a *Agent) PredictValues(emittedLabelIDs []int) []float64 {
	q := a.inner.Predict(emittedLabelIDs)
	return append([]float64(nil), q[:a.inner.NumModels]...)
}

// Budget is a per-image resource constraint.
type Budget struct {
	// DeadlineSec bounds the schedule's execution time. Zero means no
	// deadline (the scheduler stops when no model is predicted valuable).
	DeadlineSec float64
	// MemoryGB, when positive, is the GPU memory an item's models may
	// hold at once. It bounds the schedule; the policy picks its shape.
	// Under PolicyAlgorithm2 the models run in parallel within it (the
	// multi-processor setting of Algorithm 2). Every other policy runs
	// one model at a time and skips a model that does not fit.
	MemoryGB float64
}

// Validate checks the budget's shape. Every labeling and serving surface
// applies it, so the rules live in exactly one place: budgets must be
// non-negative and finite in the units the schedulers read (ms and MB),
// zero being the one way to say "none", and a memory budget needs a
// deadline — Algorithm 2 packs model time x memory rectangles into the
// deadline x memory area, which is unbounded without one.
func (b Budget) Validate() error {
	if !finite(b.DeadlineSec * 1000) {
		return fmt.Errorf("ams: deadline %v s out of range (not finite in ms)", b.DeadlineSec)
	}
	if !finite(b.MemoryGB * 1024) {
		return fmt.Errorf("ams: memory budget %v GB out of range (not finite in MB)", b.MemoryGB)
	}
	if b.DeadlineSec < 0 {
		return fmt.Errorf("ams: negative deadline %v s", b.DeadlineSec)
	}
	if b.MemoryGB < 0 {
		return fmt.Errorf("ams: negative memory budget %v GB", b.MemoryGB)
	}
	if b.MemoryGB > 0 && b.DeadlineSec <= 0 {
		return fmt.Errorf("ams: a memory budget requires a deadline")
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// OutputLabel is one emitted label.
type OutputLabel struct {
	Name       string
	Task       string
	Confidence float64
	Valuable   bool // confidence at or above the valuable threshold
}

// Result reports one labeled item.
type Result struct {
	Image     int           // held-out image index; -1 for external items
	ItemID    string        // the item's ID, echoed verbatim
	Labels    []OutputLabel // all emitted labels, deduplicated
	ModelsRun []string      // executed models in order
	TimeSec   float64       // serial: summed model time; parallel: makespan

	// Recall is the fraction of the item's valuable value recalled —
	// meaningful only when HasRecall is true. Ground truth exists for
	// oracle-backed (test-split) items; externally ingested items report
	// labels, models run, and time, which is what production gives you.
	Recall    float64
	HasRecall bool
}

// cancelPolicy makes a context cancel a running schedule: once ctx is
// done it declines every selection, which every executor treats as the
// policy stopping — the remaining schedule is aborted and the labels
// emitted so far stand as the partial result.
type cancelPolicy struct {
	sim.Policy
	ctx context.Context
}

func (p cancelPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	if p.ctx.Err() != nil {
		return -1
	}
	return p.Policy.Next(t, c)
}

// withCancel wraps a policy so ctx cancellation aborts its schedule.
func withCancel(ctx context.Context, p sim.Policy) sim.Policy {
	if ctx.Done() == nil {
		return p // not cancellable; skip the per-ask check
	}
	return cancelPolicy{Policy: p, ctx: ctx}
}

// Label schedules model executions for one item under the budget, driven
// by the agent and DefaultPolicy(b): Algorithm 1 for a pure deadline,
// Algorithm 2 when a memory budget is present, and plain value-greedy
// scheduling when unconstrained. Items come from TestItem (the built-in
// held-out split, with recall), ComposeItem or GenerateItems (external
// content, executed on demand). Use LabelWith to pick the policy
// explicitly.
//
// Cancelling ctx aborts the remaining schedule: Label returns the
// partial result of the models that already ran, alongside ctx.Err().
func (s *System) Label(ctx context.Context, agent *Agent, item Item, b Budget) (*Result, error) {
	if agent == nil {
		return nil, fmt.Errorf("ams: nil agent")
	}
	return s.LabelWith(ctx, DefaultPolicy(b), agent, item, b)
}

// LabelRandom labels an item with the random baseline under the budget
// — useful for the comparisons the paper plots. It is LabelWith with
// PolicyRandom, so it runs one model at a time, and a memory budget only
// bounds which models fit. The paper's parallel random packer (Fig. 11)
// is an experiment baseline, not a registry policy.
func (s *System) LabelRandom(ctx context.Context, item Item, b Budget, seed uint64) (*Result, error) {
	return s.LabelWith(ctx, PolicyRandom.WithSeed(seed), nil, item, b)
}

// OptimalStarRecall returns the relaxed optimal* reference recall for a
// held-out image under the budget (§V-C) — the yardstick the paper
// compares its heuristics against. It is inherently oracle-backed: the
// bound needs ground truth, so it takes a test-split index, not an Item.
func (s *System) OptimalStarRecall(image int, b Budget) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if err := s.checkImage(image); err != nil {
		return 0, err
	}
	if b.MemoryGB > 0 {
		return sched.OptimalStarMemory(s.testStore, image, b.DeadlineSec*1000, b.MemoryGB*1024), nil
	}
	if b.DeadlineSec <= 0 {
		return 1, nil
	}
	return sched.OptimalStarDeadline(s.testStore, image, b.DeadlineSec*1000), nil
}

// buildResult converts an executed schedule into the public Result.
func (s *System) buildResult(ex oracle.Executor, item Item, res sim.Result) *Result {
	names := make([]string, len(res.Executed))
	for i, m := range res.Executed {
		names[i] = ex.Model(m).Name
	}
	return s.assembleResult(item, names, res.Outputs, res.MakespanMS, res.Recall, res.HasRecall)
}

// assembleResult reduces an executed schedule — model names and their
// outputs, by value — to the public Result: labels deduplicated at their
// best confidence, in first-emission order. It is the shared tail of
// the library (buildResult), server and corpus-recovery paths. It adopts
// modelNames as ModelsRun, so every caller passes a slice of its own.
// The label IDs are deduplicated by a scan over stack buffers, and
// Labels is allocated once at its size: besides what it adopts, a Result
// costs two allocations.
func (s *System) assembleResult(item Item, modelNames []string, outputs []zoo.Output, timeMS, recall float64, hasRecall bool) *Result {
	out := &Result{
		Image:     item.image,
		ItemID:    item.id,
		TimeSec:   timeMS / 1000,
		Recall:    recall,
		HasRecall: hasRecall,
	}
	if item.ext != nil {
		out.Image = -1
	}
	if len(modelNames) > 0 {
		out.ModelsRun = modelNames
	}
	var idBuf [64]int
	var confBuf [64]float64
	ids, confs := idBuf[:0], confBuf[:0]
	for i := range modelNames {
		for _, lc := range outputs[i].Labels {
			if j := slices.Index(ids, lc.ID); j < 0 {
				ids = append(ids, lc.ID)
				confs = append(confs, lc.Conf)
			} else if lc.Conf > confs[j] {
				confs[j] = lc.Conf
			}
		}
	}
	if len(ids) > 0 {
		out.Labels = make([]OutputLabel, len(ids))
	}
	for j, id := range ids {
		l := s.Vocabulary.Label(id)
		out.Labels[j] = OutputLabel{
			Name:       l.Name,
			Task:       l.Task.String(),
			Confidence: confs[j],
			Valuable:   confs[j] >= ValuableThreshold,
		}
	}
	return out
}

// ValuableLabels filters a result's labels to the valuable ones.
func (r *Result) ValuableLabels() []OutputLabel {
	var out []OutputLabel
	for _, l := range r.Labels {
		if l.Valuable {
			out = append(out, l)
		}
	}
	return out
}
