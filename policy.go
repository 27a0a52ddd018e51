package ams

import (
	"context"
	"fmt"
	"strings"

	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// Policy is a first-class, named scheduling policy. The same value
// drives every execution surface — Label/LabelWith, LabelBatch, and the
// real server through ServeConfig.Policy — because every built-in
// implementation honors the one constraint-carrying contract of
// internal/sim: pick the next model from the labeling state under the
// remaining time and the memory available right now.
//
// The zero value is not a usable policy; obtain one from the exported
// variables or PolicyByName. DefaultPolicy picks the paper's algorithm
// for a budget shape.
type Policy struct {
	name string
	// parallel marks the batch-scheduling policy (Algorithm 2): the
	// server runs it in per-item parallel mode, where one item's models
	// execute concurrently across the pool under the shared accountant.
	parallel bool
	// needsAgent rejects instantiation without a trained agent.
	needsAgent bool
	seed       uint64
	// build constructs the worker-private implementation. cache, when
	// non-nil, is the server's shared cross-item Q-prediction cache;
	// agent-driven policies thread it into their predictors, others
	// ignore it.
	build func(s *System, agent *Agent, seed uint64, cache *sched.SharedCache) sim.Policy
}

// The built-in policies.
var (
	// PolicyAlgorithm1 is the paper's Algorithm 1: cost-aware Q-greedy,
	// maximizing predicted value per unit time among feasible models.
	PolicyAlgorithm1 = Policy{
		name:       "algorithm1",
		needsAgent: true,
		build: func(s *System, agent *Agent, _ uint64, cache *sched.SharedCache) sim.Policy {
			return sched.NewCostQGreedy(agent.workerPredictor(cache), s.Zoo)
		},
	}
	// PolicyAlgorithm2 is the paper's Algorithm 2: deadline+memory batch
	// packing. Under a memory budget the server runs it per item, with
	// one item's models executing in parallel (sim.RunParallel
	// semantics).
	PolicyAlgorithm2 = Policy{
		name:       "algorithm2",
		parallel:   true,
		needsAgent: true,
		build: func(s *System, agent *Agent, _ uint64, cache *sched.SharedCache) sim.Policy {
			return sched.NewMemoryPacker(agent.workerPredictor(cache), s.Zoo)
		},
	}
	// PolicyQGreedy picks the feasible model with the highest predicted
	// value, ignoring cost.
	PolicyQGreedy = Policy{
		name:       "qgreedy",
		needsAgent: true,
		build: func(s *System, agent *Agent, _ uint64, cache *sched.SharedCache) sim.Policy {
			return sched.NewQGreedy(agent.workerPredictor(cache), s.Zoo)
		},
	}
	// PolicyRandom executes uniformly random feasible models — the
	// paper's baseline. It needs no agent; seed it with WithSeed for
	// reproducible draws.
	PolicyRandom = Policy{
		name: "random",
		build: func(s *System, _ *Agent, seed uint64, _ *sched.SharedCache) sim.Policy {
			return itemSeeded{sched.NewRandom(s.Zoo, tensor.NewRNG(seed)), seed}
		},
	}
)

// itemSeeded restarts the random baseline's stream at each item's first
// ask from (seed, the item's scene seed): Reset sees only an executor
// slot, which differs from door to door, but the labeling state knows the
// item. The draws then depend on nothing else — not the worker, the
// shard, the slot, or what ran before.
type itemSeeded struct {
	*sched.Random
	seed uint64
}

func (p itemSeeded) Next(t *oracle.Tracker, c sim.Constraints) int {
	if t.ExecutedCount()+t.InFlightCount() == 0 {
		p.Seed(p.seed ^ t.Seed()*0x9e3779b97f4a7c15)
	}
	return p.Random.Next(t, c)
}

// builtinPolicies lists the registry in documentation order.
var builtinPolicies = []Policy{PolicyAlgorithm1, PolicyAlgorithm2, PolicyQGreedy, PolicyRandom}

// Name returns the registry name of the policy ("" for the zero value).
func (p Policy) Name() string { return p.name }

// WithSeed returns a copy of the policy whose stochastic parts (the
// random baseline's RNG) draw from the given seed stream.
func (p Policy) WithSeed(seed uint64) Policy {
	p.seed = seed
	return p
}

// valid reports whether the policy came from the registry.
func (p Policy) valid() bool { return p.build != nil }

// check validates the policy configuration without building anything,
// for surfaces that only need to fail fast.
func (p Policy) check(agent *Agent) error {
	if !p.valid() {
		return fmt.Errorf("ams: zero Policy value; use PolicyByName or a Policy* variable")
	}
	if p.needsAgent && agent == nil {
		return fmt.Errorf("ams: policy %q needs an agent", p.name)
	}
	return nil
}

// instantiate builds the internal policy implementation of a checked
// policy (cache as in build: the server's shared cache or nil).
func (p Policy) instantiate(s *System, agent *Agent, cache *sched.SharedCache) sim.Policy {
	return p.build(s, agent, p.seed, cache)
}

// PolicyNames lists the built-in policy names.
func PolicyNames() []string {
	names := make([]string, len(builtinPolicies))
	for i, p := range builtinPolicies {
		names[i] = p.name
	}
	return names
}

// PolicyByName looks a built-in policy up by its registry name.
func PolicyByName(name string) (Policy, error) {
	for _, p := range builtinPolicies {
		if p.name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("ams: unknown policy %q (have %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// DefaultPolicy returns the paper's algorithm for a budget shape:
// Algorithm 2 under a joint deadline+memory budget, Algorithm 1 under a
// deadline, and plain Q-greedy when unconstrained.
func DefaultPolicy(b Budget) Policy {
	switch {
	case b.MemoryGB > 0:
		return PolicyAlgorithm2
	case b.DeadlineSec > 0:
		return PolicyAlgorithm1
	default:
		return PolicyQGreedy
	}
}

// runSchedule is the one budget dispatch shared by every labeling
// surface: it picks the executor's limits from the budget shape and runs
// the policy under them, over any oracle.Executor (precomputed or
// on-demand). The budget must already be validated.
func (s *System) runSchedule(ex oracle.Executor, idx int, p sim.Policy, b Budget) sim.Result {
	switch {
	case b.MemoryGB > 0:
		return sim.RunParallel(ex, idx, p, b.DeadlineSec*1000, b.MemoryGB*1024)
	case b.DeadlineSec > 0:
		return sim.RunDeadline(ex, idx, p, b.DeadlineSec*1000)
	default:
		// Schedule until every valuable label is recalled — or, without
		// ground truth, until the policy stops proposing models.
		return sim.RunToRecall(ex, idx, p, 1.0)
	}
}

// checkImage validates a held-out image index.
func (s *System) checkImage(image int) error {
	if image < 0 || image >= s.testStore.NumScenes() {
		return fmt.Errorf("ams: image %d out of range [0,%d)", image, s.testStore.NumScenes())
	}
	return nil
}

// LabelWith labels one item with an explicit policy under the budget.
// The agent may be nil for policies that do not need one (the random
// baseline). Label is LabelWith with DefaultPolicy(b). Cancelling ctx
// aborts the remaining schedule and returns the partial result alongside
// ctx.Err().
func (s *System) LabelWith(ctx context.Context, policy Policy, agent *Agent, item Item, b Budget) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	ex, idx, err := s.resolveItem(item)
	if err != nil {
		return nil, err
	}
	if err := policy.check(agent); err != nil {
		return nil, err
	}
	res := s.runSchedule(ex, idx, withCancel(ctx, policy.instantiate(s, agent, nil)), b)
	return s.buildResult(ex, item, res), ctx.Err()
}
