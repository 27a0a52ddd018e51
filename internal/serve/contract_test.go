package serve

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ams/internal/batch"
	"ams/internal/oracle"
	"ams/internal/service"
	"ams/internal/sim"
	"ams/internal/vtime"
	"ams/internal/zoo"
)

// scriptPolicy returns a fixed list of models, one per ask, whatever the
// constraints say — the misbehaving policies of the contract table —
// and then declines.
type scriptPolicy struct {
	script []int
	asked  int
}

func (p *scriptPolicy) Name() string { return "script" }
func (p *scriptPolicy) Reset(int)    { p.asked = 0 }
func (p *scriptPolicy) Next(*oracle.Tracker, sim.Constraints) int {
	if p.asked >= len(p.script) {
		return -1
	}
	p.asked++
	return p.script[p.asked-1]
}
func (p *scriptPolicy) Observe(int, zoo.Output) {}

// firstFit launches the first candidate that fits and remembers nothing:
// the labeling state carries the in-flight set, so a policy with no
// bookkeeping of its own is legal under overlapping launches.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }
func (firstFit) Reset(int)    {}
func (firstFit) Next(t *oracle.Tracker, c sim.Constraints) int {
	for m := range t.Candidates() {
		if c.Allows(store.Zoo.Models[m]) {
			return m
		}
	}
	return -1
}
func (firstFit) Observe(int, zoo.Output) {}

// TestExecutorContract is the one table of the executor's contract with
// its policy, run over both machines: the virtual one and the server's
// real one, uncontended, plus — for serial rows under a budget — the
// real one whose batch lanes own the footprint. Every violation must
// panic in the executor, naming the policy and the violation; every
// legal ending must yield the same schedule on every machine. A
// batch-owned machine ends every row with no grant left claimed: above
// the whole budget, the executor panics before any grant is asked. Models: 6 facedet-blaze (50 ms, 500 MB), 1
// objdet-accurate (380 ms, 5000 MB), 13 pose-flow (280 ms, 5200 MB),
// 12 pose-openpose (400 ms, 8000 MB).
func TestExecutorContract(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name     string
		script   []int      // asked through a scriptPolicy ...
		policy   sim.Policy // ... unless the row brings its own
		lim      sim.Limits
		memMB    float64
		panics   string // substring of the violation; "" when the schedule is legal
		executed []int
	}{
		{name: "deadline overrun", script: []int{1},
			lim: sim.Limits{DeadlineMS: 10, InFlight: 1}, panics: "exceeded the deadline"},
		{name: "deadline overrun at a later launch", script: []int{6, 1},
			lim: sim.Limits{DeadlineMS: 400, InFlight: 1}, panics: "exceeded the deadline"},
		{name: "headroom overrun", script: []int{1, 13},
			lim: sim.Limits{DeadlineMS: 800}, memMB: 8000, panics: "memory headroom"},
		{name: "double launch", script: []int{6, 6},
			lim: sim.Limits{DeadlineMS: 800}, memMB: 8000, panics: "launched model 6 twice"},
		{name: "relaunch of an executed model", script: []int{6, 6},
			lim: sim.Limits{DeadlineMS: 800, InFlight: 1}, memMB: 8000, panics: "launched model 6 twice"},
		{name: "footprint above the whole budget", script: []int{12},
			lim: sim.Limits{DeadlineMS: 800, InFlight: 1}, memMB: 1000, panics: "memory headroom"},
		{name: "zero budget", script: []int{6},
			lim: sim.Limits{InFlight: 1}},
		{name: "decline with models unexecuted", script: []int{6, 1},
			lim: sim.Limits{DeadlineMS: inf, InFlight: 1}, memMB: 8000, executed: []int{6, 1}},
		{name: "parallel commits in finish order", script: []int{1, 6},
			lim: sim.Limits{DeadlineMS: 800}, memMB: 8000, executed: []int{6, 1}},
		{name: "no bookkeeping under overlapping launches", policy: firstFit{},
			lim: sim.Limits{DeadlineMS: 800}, memMB: 8000,
			executed: []int{0, 2, 6, 3, 8, 15, 4, 16, 17, 7, 1, 10, 19, 18, 20, 29, 11, 26, 5, 14, 23, 28, 25}},
	} {
		// serverMachine builds the server's machine, uncontended; a
		// batch-owned one runs every execution through a one-request batch
		// lane whose batch holds the footprint.
		serverMachine := func(batchOwned bool) func() (sim.Machine, *Server) {
			return func() (sim.Machine, *Server) {
				s := &Server{
					ex:    store,
					cfg:   Config{Config: service.Config{MemoryBudgetMB: tc.memMB}, TimeScale: 0.001},
					wheel: vtime.NewWheel(),
				}
				if tc.memMB > 0 {
					s.acct = newAccountant(tc.memMB)
				}
				if batchOwned {
					s.batcher = batch.New(store.Zoo.Models, s.acct, s.wheel, batch.Config{MaxBatch: 1, TimeScale: 0.001})
					s.batchOwnsMem = true
				}
				return &machine{s: s}, s
			}
		}
		machines := map[string]func() (sim.Machine, *Server){
			"virtual": func() (sim.Machine, *Server) { return sim.NewVirtual(tc.memMB), nil },
			"real":    serverMachine(false),
		}
		if tc.lim.InFlight == 1 && tc.memMB > 0 {
			// Serial under a budget: the server lets the batch own the
			// footprint, and the policy is shown the whole budget.
			machines["batched"] = serverMachine(true)
		}
		for name, build := range machines {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				mach, s := build()
				if s != nil {
					defer s.wheel.Stop()
				}
				defer func() {
					r := recover()
					if s != nil && s.batchOwnsMem && s.acct.inUse() != 0 {
						t.Errorf("schedule ended with %v MB still claimed", s.acct.inUse())
					}
					switch {
					case tc.panics == "" && r != nil:
						t.Fatalf("legal schedule panicked: %v", r)
					case tc.panics != "" && r == nil:
						t.Fatalf("violation %q did not panic", tc.panics)
					case tc.panics != "":
						msg := fmt.Sprint(r)
						if !strings.Contains(msg, "script") || !strings.Contains(msg, tc.panics) {
							t.Fatalf("panic %q does not name the policy and %q", msg, tc.panics)
						}
					}
				}()
				var p sim.Policy = &scriptPolicy{script: tc.script}
				if tc.policy != nil {
					p = tc.policy
				}
				res := sim.Execute(mach, store, 0, p, tc.lim)
				if !reflect.DeepEqual(res.Executed, tc.executed) {
					t.Fatalf("executed %v, want %v", res.Executed, tc.executed)
				}
				if len(res.Outputs) != len(res.Executed) || mach.FreeMB() != sim.NewVirtual(tc.memMB).FreeMB() {
					t.Fatalf("schedule ended with %d outputs for %d models, %v MB free",
						len(res.Outputs), len(res.Executed), mach.FreeMB())
				}
			})
		}
	}
}
