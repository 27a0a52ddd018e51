package ams

import (
	"context"
	"fmt"
	"strings"

	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/service"
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
	// parallel marks the batch-scheduling policy (Algorithm 2): under a
	// memory budget it runs in per-item parallel mode (runsParallel),
	// one item's models executing concurrently within the budget.
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
	// packing. It is the one policy that runs an item's models in
	// parallel, on every surface, and only under a memory budget
	// (sim.RunParallel semantics). Without one LabelWith runs it one
	// model at a time; the server refuses it.
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
// index, which is 0 for every external item, but the labeling state
// knows the item. The draws then depend on nothing else — not the
// worker, the shard, or what ran before.
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

// runsParallel is the one rule that shapes a schedule, on every
// labeling and serving surface: an item's models run concurrently under
// the memory budget (Algorithm 2) iff the policy is the parallel packer
// and the budget has memory. Otherwise one model runs at a time, and a
// memory budget only bounds which models fit.
func (p Policy) runsParallel(b Budget) bool { return p.parallel && b.MemoryGB > 0 }

// runSchedule runs impl, an instantiation of p, on one item under the
// budget, over any oracle.Executor (precomputed or on-demand), in the
// shape runsParallel picks. The budget must already be validated.
func (p Policy) runSchedule(ex oracle.Executor, idx int, impl sim.Policy, b Budget) sim.Result {
	if b.DeadlineSec == 0 {
		// Schedule until every valuable label is recalled — or, without
		// ground truth, until the policy stops proposing models.
		return sim.RunToRecall(ex, idx, impl, 1.0)
	}
	lim := service.Config{DeadlineSec: b.DeadlineSec, ItemParallel: p.runsParallel(b)}.Limits()
	return sim.Execute(sim.NewVirtual(b.MemoryGB*1024), ex, idx, impl, lim)
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
	res := policy.runSchedule(ex, idx, withCancel(ctx, policy.instantiate(s, agent, nil)), b)
	return s.buildResult(ex, item, res), ctx.Err()
}
