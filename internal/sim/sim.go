// Package sim owns the scheduling contract of the AMS reproduction and
// the one executor that runs it. Policy picks the next model from the
// current labeling state (the in-flight set included) under the
// Constraints in force; Execute is the loop around it — ask, check the
// selection, launch, commit the earliest finish, reveal the output —
// written once and run over a Machine.
// Algorithm 1 (§VI-F) is that loop with one model in flight, Algorithm 2
// (§VI-G) with the in-flight set bounded by shared GPU memory, and the
// §VI-B recall-threshold evaluation is Algorithm 1 with no budgets and a
// policy that stops at the target recall.
//
// Two machines exist: Virtual here (a memory counter that never waits —
// RunToRecall, RunDeadline, RunParallel, internal/service and the
// explore–exploit runner of internal/sched run on it)
// and internal/serve's real one (shared accountant, timer wheel, batch
// lanes). Policy implementations live in internal/sched and
// internal/graph; because the contract and the loop are uniform, any
// policy runs on either machine.
package sim

import (
	"fmt"
	"math"
	"slices"

	"ams/internal/oracle"
	"ams/internal/zoo"
)

// budgetEps absorbs float drift when budgets are compared; it is also
// the tolerance Execute applies when checking policy decisions.
const budgetEps = 1e-9

// Constraints carries the resource limits in force when a policy picks
// the next model. A zero or +Inf field leaves that dimension
// unconstrained; executors that track a dwindling budget always pass a
// positive remaining amount and stop on their own once it is depleted,
// so a policy never sees an accidental "zero means anything goes".
type Constraints struct {
	// RemainingMS is the schedule time still available: a selected
	// model must run to completion within it.
	RemainingMS float64
	// AvailMemMB is the GPU memory free right now: a selected model's
	// peak footprint must fit in it. In the real server this is the
	// shared accountant's live availability, so a model bigger than
	// the current headroom is simply not selectable — the policy skips
	// it and keeps scheduling the remaining feasible models.
	AvailMemMB float64
}

// AllowsTime reports whether a model taking ms milliseconds fits the
// time dimension.
func (c Constraints) AllowsTime(ms float64) bool {
	return c.RemainingMS == 0 || math.IsInf(c.RemainingMS, 1) || ms <= c.RemainingMS+budgetEps
}

// AllowsMem reports whether a model occupying mb megabytes fits the
// memory dimension.
func (c Constraints) AllowsMem(mb float64) bool {
	return c.AvailMemMB == 0 || math.IsInf(c.AvailMemMB, 1) || mb <= c.AvailMemMB+budgetEps
}

// Allows reports whether a model fits both dimensions.
func (c Constraints) Allows(m *zoo.Model) bool {
	return c.AllowsTime(m.TimeMS) && c.AllowsMem(m.MemMB)
}

// Policy is the one scheduling contract of the framework: from the
// current labeling state and the constraints in force, choose the next
// model to execute, or -1 when no feasible or useful model remains.
//
// Execute launches a returned model immediately and, unless capped at
// one model in flight, asks again (at the same labeling state, with the
// memory headroom reduced) until the policy declines; a launched model's
// output becomes visible only when Observe is called at its completion.
// The labeling state carries the in-flight set — Execute records every
// launch on the Tracker, whose Candidates are the models neither run nor
// in flight — so a policy keeps no launch bookkeeping of its own: it
// picks among the candidates and never returns anything else.
type Policy interface {
	Name() string
	// Reset is called once before each image.
	Reset(scene int)
	// Next returns the model to execute next under c, or -1.
	Next(t *oracle.Tracker, c Constraints) int
	// Observe feeds back an executed model's full stored output.
	Observe(m int, out zoo.Output)
}

// Result summarizes one executed schedule.
type Result struct {
	Executed []int        // models in completion order
	Outputs  []zoo.Output // the executed models' outputs, parallel to Executed
	TimeMS   float64      // summed model time
	// MakespanMS is the schedule clock at the last commit: equal to
	// TimeMS with one model in flight at a time, shorter when models
	// overlapped.
	MakespanMS float64
	PeakMemMB  float64 // maximum simultaneous memory use; RunParallel reports it
	Recall     float64 // final recall of valuable value; 0 when !HasRecall
	// HasRecall reports whether the item's ground truth was known, i.e.
	// whether Recall measures anything. Precomputed-store items always
	// have it; externally ingested items usually do not.
	HasRecall bool
}

// Limits bounds one schedule.
type Limits struct {
	// DeadlineMS is the schedule-clock budget: a model may start only if
	// it finishes within it (Algorithm 1 line 3). +Inf means no deadline;
	// a non-positive deadline executes nothing.
	DeadlineMS float64
	// InFlight caps how many models run at once: 1 is Algorithm 1's
	// serial loop, 0 leaves the cap to the machine's memory (Algorithm 2).
	InFlight int
}

// Machine is what a schedule executes on. The virtual one (Virtual) only
// counts memory; internal/serve's reserves against the shared accountant
// and sleeps on the timer wheel.
type Machine interface {
	// FreeMB is the memory a launch could claim right now, +Inf when the
	// machine has no memory budget.
	FreeMB() float64
	// Start launches model m, claiming its footprint.
	Start(m int, mod *zoo.Model)
	// Finish blocks until m's execution has ended and gives its
	// footprint back.
	Finish(m int, mod *zoo.Model)
	// Stalled is asked when nothing is in flight and the policy declined
	// (or could not be asked) at freeMB of headroom: it blocks until
	// waiting for memory may have changed the answer and returns true,
	// or returns false at once when it never can — the schedule is over.
	Stalled(t *oracle.Tracker, remainingMS, freeMB float64) bool
}

// Virtual is the virtual-time machine: a used-megabytes counter that
// never waits.
type Virtual struct {
	budgetMB, usedMB, peakMB float64
}

// NewVirtual returns a virtual machine with memMB of memory; zero means
// no memory budget.
func NewVirtual(memMB float64) *Virtual { return &Virtual{budgetMB: memMB} }

func (v *Virtual) FreeMB() float64 {
	if v.budgetMB == 0 {
		return math.Inf(1)
	}
	return v.budgetMB - v.usedMB
}

func (v *Virtual) Start(_ int, mod *zoo.Model) {
	v.usedMB += mod.MemMB
	if v.usedMB > v.peakMB {
		v.peakMB = v.usedMB
	}
}

func (v *Virtual) Finish(_ int, mod *zoo.Model) { v.usedMB -= mod.MemMB }

func (v *Virtual) Stalled(*oracle.Tracker, float64, float64) bool { return false }

// running is one in-flight model execution.
type running struct {
	model    int
	finishMS float64 // nominal finish on the schedule clock
}

// Run is the reusable state of the schedule executor: the labeling state
// and the executed-model and output scratch one schedule fills. An
// executor that labels item after item — a serving worker — keeps one
// Run and reuses its storage; Execute makes a fresh one per schedule.
type Run struct {
	tracker  oracle.Tracker
	inFly    []running // the in-flight set, launch order
	executed []int
	outputs  []zoo.Output
}

// Execute runs one schedule on a fresh Run (see Run.Execute).
func Execute(mach Machine, ex oracle.Executor, item int, p Policy, lim Limits) Result {
	return new(Run).Execute(mach, ex, item, p, lim)
}

// Release drops the references the last schedule left in the Run — its
// tracker's executor and ground truth and the outputs scratch — so a Run
// kept for the next item does not retain the last one. The Result's
// Executed and Outputs are copies and stay valid.
func (r *Run) Release() {
	r.tracker.Release()
	clear(r.outputs)
	r.outputs = r.outputs[:0]
}

// Execute is the one schedule executor. Launch phase: while the limits
// allow, ask the policy with {deadline − now, machine headroom}, check
// the selection against what it was handed, and start it — one model per
// ask until the policy declines. Then commit the earliest nominal finish
// (ties: launch order; Algorithm 2 line 14): wait for it, advance the
// schedule clock, and reveal its output to the labeling state and the
// policy, which is when Q-value predictions may change. The clock is
// nominal — now is a sum of model times — so a schedule is a function of
// (policy, item, limits, observed headroom) and never of wall-clock
// jitter on a real machine. The Result's Executed and Outputs are
// exactly-sized copies the caller owns.
func (r *Run) Execute(mach Machine, ex oracle.Executor, item int, p Policy, lim Limits) Result {
	p.Reset(item)
	t := &r.tracker
	t.Reset(ex, item)
	inFly := r.inFly[:0]
	r.executed, r.outputs = r.executed[:0], r.outputs[:0]
	var res Result
	var now float64
	for {
		// stalledAt is the headroom at which launching stopped short, so
		// an idle schedule can wait for a release instead of ending on
		// another item's transient usage.
		stalledAt := -1.0
		for (lim.InFlight == 0 || len(inFly) < lim.InFlight) && t.ExecutedCount() < ex.NumModels() {
			remaining := lim.DeadlineMS - now
			if remaining <= 0 {
				break
			}
			// Never ask with a depleted headroom: a zero constraint field
			// means "unconstrained" to the policy.
			free := mach.FreeMB()
			if free <= 0 {
				stalledAt = 0
				break
			}
			m := p.Next(t, Constraints{RemainingMS: remaining, AvailMemMB: free})
			if m < 0 {
				stalledAt = free
				break
			}
			mod := ex.Model(m)
			if mod.TimeMS > remaining+budgetEps {
				panic(fmt.Sprintf("sim: policy %s exceeded the deadline (model %d needs %v ms, %v left)",
					p.Name(), m, mod.TimeMS, remaining))
			}
			if mod.MemMB > free+budgetEps {
				panic(fmt.Sprintf("sim: policy %s exceeded the memory headroom (model %d needs %v MB, %v free)",
					p.Name(), m, mod.MemMB, free))
			}
			// An in-flight model's output is not visible yet; it stays out
			// of the candidate set until it commits.
			if !t.Launch(m) {
				panic(fmt.Sprintf("sim: policy %s launched model %d twice", p.Name(), m))
			}
			mach.Start(m, mod)
			inFly = append(inFly, running{model: m, finishMS: now + mod.TimeMS})
		}
		if len(inFly) == 0 {
			if stalledAt >= 0 && mach.Stalled(t, lim.DeadlineMS-now, stalledAt) {
				continue
			}
			break // nothing running and nothing launchable: the schedule is done
		}
		ei := 0
		for i, r := range inFly {
			if r.finishMS < inFly[ei].finishMS {
				ei = i
			}
		}
		done := inFly[ei]
		inFly = append(inFly[:ei], inFly[ei+1:]...)
		mod := ex.Model(done.model)
		mach.Finish(done.model, mod)
		now = done.finishMS
		out, _ := t.Execute(done.model)
		p.Observe(done.model, out)
		r.executed = append(r.executed, done.model)
		r.outputs = append(r.outputs, out)
		res.TimeMS += mod.TimeMS
	}
	r.inFly = inFly
	if len(r.executed) > 0 {
		res.Executed, res.Outputs = slices.Clone(r.executed), slices.Clone(r.outputs)
	}
	res.MakespanMS = now
	res.Recall = t.Recall()
	res.HasRecall = t.HasTruth()
	return res
}

// untilRecall makes a policy stop once the recall of valuable value
// reaches threshold (the ground-truth stop condition of §VI-B).
type untilRecall struct {
	Policy
	threshold float64
}

func (p untilRecall) Next(t *oracle.Tracker, c Constraints) int {
	if t.Recall() >= p.threshold-1e-12 {
		return -1
	}
	return p.Policy.Next(t, c)
}

// RunToRecall executes models serially per the policy until the recall of
// valuable value reaches threshold, the policy stops, or every model has
// run. For items without ground truth the recall never reaches a positive
// threshold, so the schedule runs until the policy declines or the models
// are exhausted.
func RunToRecall(ex oracle.Executor, item int, p Policy, threshold float64) Result {
	if threshold < 0 || threshold > 1 {
		panic(fmt.Sprintf("sim: recall threshold %v out of [0,1]", threshold))
	}
	return Execute(NewVirtual(0), ex, item, untilRecall{p, threshold}, Limits{DeadlineMS: math.Inf(1), InFlight: 1})
}

// RunDeadline executes models serially under a per-image deadline
// (Algorithm 1).
func RunDeadline(ex oracle.Executor, item int, p Policy, deadlineMS float64) Result {
	return Execute(NewVirtual(0), ex, item, p, Limits{DeadlineMS: deadlineMS, InFlight: 1})
}

// RunParallel simulates multi-processor execution under a wall-clock
// deadline and a shared GPU memory budget (Algorithm 2): launched models
// occupy their peak memory while running and release it on completion.
func RunParallel(ex oracle.Executor, item int, p Policy, deadlineMS, memMB float64) Result {
	if deadlineMS <= 0 || memMB <= 0 {
		panic("sim: non-positive parallel budgets")
	}
	v := NewVirtual(memMB)
	res := Execute(v, ex, item, p, Limits{DeadlineMS: deadlineMS})
	res.PeakMemMB = v.peakMB
	return res
}
