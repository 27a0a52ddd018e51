package serve

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ams/internal/labels"
	"ams/internal/obs"
	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/service"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 40, 77)
	store = oracle.Build(z, ds.Scenes)
)

// fast is a quick-running config: a millisecond of model time sleeps one
// microsecond, so a full 0.5 s schedule costs 0.5 ms of wall clock.
func fast(workers int) Config {
	return Config{
		Config:    service.Config{Workers: workers, DeadlineSec: 0.5},
		TimeScale: 0.001,
	}
}

func randomFactory(seed uint64) service.PolicyFactory {
	return func(worker int) sim.Policy {
		return sched.NewRandom(z, tensor.NewRNG(seed+uint64(worker)))
	}
}

// fixedPolicy executes a fixed model list in order, ignoring value but
// honoring the constraints: a model that does not fit the remaining
// time or the available memory is skipped, not schedule-ending. It
// gives timing tests a deterministic per-item schedule length.
type fixedPolicy struct{ models []int }

func (p *fixedPolicy) Name() string { return "fixed" }
func (p *fixedPolicy) Reset(int)    {}
func (p *fixedPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	for _, m := range p.models {
		if t.Candidate(m) && c.Allows(z.Models[m]) {
			return m
		}
	}
	return -1
}
func (p *fixedPolicy) Observe(int, zoo.Output) {}

func fixedFactory(models ...int) service.PolicyFactory {
	return func(worker int) sim.Policy { return &fixedPolicy{models: models} }
}

// completions collects every completion's record through a server's
// completion hook, on a timeline that starts when collect is called, as
// the root server's stats window does.
type completions struct {
	mu      sync.Mutex
	epoch   time.Time
	scale   float64
	workers int
	records []service.Record
}

// collect installs the collecting hook on s, before its first admission.
func collect(s *Server) *completions {
	c := &completions{epoch: time.Now(), scale: s.cfg.TimeScale, workers: s.cfg.Workers}
	s.OnFinish(func(r ItemResult) {
		c.mu.Lock()
		c.records = append(c.records, r.Record(c.epoch, c.scale))
		c.mu.Unlock()
	})
	return c
}

// summary reduces the collected records through service.Summarize.
func (c *completions) summary() service.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return service.Summarize(c.records, c.workers)
}

// submitNow admits item on a fresh ticket, shedding when the queue is
// full.
func submitNow(s *Server, item int) (*Ticket, error) {
	tk := NewTicket("")
	return tk, s.Admit(nil, tk, item)
}

func TestNewValidation(t *testing.T) {
	base := fast(2)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero workers", func(c *Config) { c.Workers = 0 }, "at least one worker"},
		{"negative workers", func(c *Config) { c.Workers = -3 }, "at least one worker"},
		{"no deadline", func(c *Config) { c.DeadlineSec = 0 }, "deadline"},
		{"negative time scale", func(c *Config) { c.TimeScale = -1 }, "time scale"},
		{"negative queue", func(c *Config) { c.QueueCap = -1 }, "queue"},
		{"negative budget", func(c *Config) { c.MemoryBudgetMB = -4 }, "memory budget"},
		{"exhausted budget", func(c *Config) { c.MemoryBudgetMB = 100 }, "smallest model"},
		{"negative batch size", func(c *Config) { c.BatchSize = -2 }, "batch size"},
		{"negative batch hold", func(c *Config) { c.BatchSize = 4; c.BatchHoldMS = -1 }, "batch hold"},
		{"NaN deadline", func(c *Config) { c.DeadlineSec = math.NaN() }, "non-finite deadline"},
		{"infinite deadline", func(c *Config) { c.DeadlineSec = math.Inf(1) }, "non-finite deadline"},
		{"infinite budget", func(c *Config) { c.MemoryBudgetMB = math.Inf(1) }, "non-finite memory budget"},
		{"NaN time scale", func(c *Config) { c.TimeScale = math.NaN() }, "non-finite time scale"},
		{"NaN batch hold", func(c *Config) { c.BatchSize = 4; c.BatchHoldMS = math.NaN() }, "non-finite batch hold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := New(store, randomFactory(1), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := New(nil, randomFactory(1), base); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(store, nil, base); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestSubmitValidationAndClose(t *testing.T) {
	rc := newRecorder()
	s, err := New(store, randomFactory(1), fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitNow(s, -1); err == nil {
		t.Fatal("negative image accepted")
	}
	if _, err := submitNow(s, store.NumScenes()); err == nil {
		t.Fatal("out-of-range image accepted")
	}
	tk, err := submitNow(s, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := tk.Wait()
	if res.Image != 0 || !res.HasRecall || res.Recall < 0 || res.Recall > 1+1e-9 {
		t.Fatalf("bad result %+v", res)
	}
	if res.ScheduleMS > 500+1e-9 {
		t.Fatalf("schedule %v ms exceeds the 500 ms deadline", res.ScheduleMS)
	}
	ext := rc.ticket(3)
	if err := s.Admit(nil, ext, 0); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if res := ext.Wait(); res.Image != -1 || res.HasRecall || len(res.Executed) == 0 {
		t.Fatalf("bad resolved result %+v", res)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := submitNow(s, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := s.Admit(nil, rc.ticket(4), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close = %v, want ErrClosed", err)
	}
	if err := s.Admit(context.Background(), rc.ticket(5), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("waiting Admit after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	// Only the one resolved item that ran was resolved and committed: the
	// closed-server admissions never reached a worker.
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.resolves) != 1 || rc.resolves[3] != 1 || len(rc.commits) != 1 || rc.commits[3] != 1 {
		t.Fatalf("resolves %v, commits %v; want item 3 resolved and committed once", rc.resolves, rc.commits)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// One worker, queue of one. The worker's single model (380 model-ms
	// at TimeScale 0.1) occupies it for ~38 ms of wall clock — a wide
	// margin over the test's submit burst.
	cfg := Config{
		Config:    service.Config{Workers: 1, DeadlineSec: 0.5},
		QueueCap:  1,
		TimeScale: 0.1,
	}
	s, err := New(store, fixedFactory(1), cfg) // model 1: objdet-accurate, 380 ms
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := submitNow(s, 0)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Give the worker time to dequeue the first item and start sleeping.
	time.Sleep(10 * time.Millisecond)
	if _, err := submitNow(s, 1); err != nil {
		t.Fatalf("second submit should occupy the queue: %v", err)
	}
	if _, err := submitNow(s, 2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if st := s.Counters(); st.Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", st.Rejected)
	}
	// Backpressure is transient: a blocking submit gets through.
	if _, err := s.SubmitWait(context.Background(), 2, ""); err != nil {
		t.Fatalf("SubmitWait during backpressure: %v", err)
	}
	first.Wait()
}

func TestSubmitWaitHonorsContext(t *testing.T) {
	cfg := Config{
		Config:    service.Config{Workers: 1, DeadlineSec: 0.5},
		QueueCap:  1,
		TimeScale: 0.1,
	}
	s, err := New(store, fixedFactory(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := submitNow(s, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := submitNow(s, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.SubmitWait(ctx, 2, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitWait = %v, want deadline exceeded", err)
	}
}

// TestMemoryBudgetNeverOvercommits is the headline concurrency test: a
// pool of four workers labels 240 items under a budget that only fits a
// couple of models at a time, and the shared accountant must never let
// the in-flight footprint exceed the budget.
func TestMemoryBudgetNeverOvercommits(t *testing.T) {
	const budgetMB = 6000
	cfg := fast(4)
	cfg.QueueCap = 16
	cfg.MemoryBudgetMB = budgetMB
	s, err := New(store, randomFactory(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(s)
	const items = 240
	var wg sync.WaitGroup
	tickets := make([]*Ticket, items)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < items; i += 8 {
				tk, err := s.SubmitWait(context.Background(), i%store.NumScenes(), "")
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				tickets[i] = tk
			}
		}(g)
	}
	wg.Wait()
	for i, tk := range tickets {
		if tk == nil {
			t.Fatalf("item %d never submitted", i)
		}
		res := tk.Wait()
		if res.Recall < 0 || res.Recall > 1+1e-9 {
			t.Fatalf("item %d recall %v", i, res.Recall)
		}
		if res.ScheduleMS > 500+1e-9 {
			t.Fatalf("item %d schedule %v ms over deadline", i, res.ScheduleMS)
		}
		// The live-availability contract: a model that cannot fit the
		// budget is never selected, it is skipped by the policy.
		for _, m := range res.Executed {
			if z.Models[m].MemMB > budgetMB+1e-9 {
				t.Fatalf("item %d executed model %d (%v MB) over the %v MB budget",
					i, m, z.Models[m].MemMB, budgetMB)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Counters()
	if st.Completed != items {
		t.Fatalf("completed %d items, want %d", st.Completed, items)
	}
	if st.PeakMemMB <= 0 || st.PeakMemMB > budgetMB+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, %v]", st.PeakMemMB, budgetMB)
	}
	// MemWaits is no longer asserted: policies see the live availability
	// and adapt their selections, so blocking happens only on rare races
	// between observation and reservation.
	if s.acct.inUse() != 0 {
		t.Fatalf("%v MB still reserved after drain", s.acct.inUse())
	}
	if sum := done.summary(); sum.Items != items || sum.AvgRecall <= 0 {
		t.Fatalf("%d records, average recall %v", sum.Items, sum.AvgRecall)
	}
}

// TestTightBudgetSerializesExecution: with a budget that fits exactly one
// mid-size model, concurrent workers degrade to (correct) serial
// execution instead of over-committing.
func TestTightBudgetSerializesExecution(t *testing.T) {
	cfg := fast(4)
	cfg.MemoryBudgetMB = 900                          // fits one ~500-900 MB model at a time
	s, err := New(store, fixedFactory(6, 8, 19), cfg) // 500, 650, 520 MB models
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.SubmitWait(context.Background(), i%store.NumScenes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Counters()
	if st.Completed != 40 {
		t.Fatalf("items %d", st.Completed)
	}
	if st.PeakMemMB > 900+1e-9 {
		t.Fatalf("peak %v MB over the 900 MB budget", st.PeakMemMB)
	}
}

// TestOversizedModelSkippedScheduleContinues: a model bigger than the
// whole budget is never selectable — the policy sees the live
// availability, skips it, and keeps scheduling the remaining feasible
// models instead of ending the item early.
func TestOversizedModelSkippedScheduleContinues(t *testing.T) {
	cfg := fast(2)
	cfg.MemoryBudgetMB = 1000 // pose-openpose (8000 MB) can never run
	// facedet-blaze, then the oversized pose-openpose, then two more
	// models that fit the budget.
	s, err := New(store, fixedFactory(6, 12, 19, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := submitNow(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	want := []int{6, 19, 8}
	if len(res.Executed) != len(want) {
		t.Fatalf("executed %v, want %v (oversized model skipped, schedule continued)", res.Executed, want)
	}
	for i := range want {
		if res.Executed[i] != want[i] {
			t.Fatalf("executed %v, want %v", res.Executed, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// itemParallelConfig is the shared deadline+memory config for the
// per-item parallel (Algorithm 2) serving tests.
func itemParallelConfig(workers int) Config {
	return Config{
		Config:    service.Config{Workers: workers, DeadlineSec: 0.8, MemoryBudgetMB: 8000, ItemParallel: true},
		TimeScale: 0.001,
	}
}

func TestItemParallelRequiresMemoryBudget(t *testing.T) {
	cfg := itemParallelConfig(1)
	cfg.MemoryBudgetMB = 0
	if _, err := New(store, fixedFactory(6), cfg); err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("New = %v, want a memory-budget error", err)
	}
}

// TestItemParallelMatchesRunParallel: an uncontended item served in
// per-item parallel mode must reproduce the sim.RunParallel schedule —
// and therefore its recall — exactly, for every image and for both a
// value-driven packer and the random baseline (same seed).
func TestItemParallelMatchesRunParallel(t *testing.T) {
	const deadlineMS, memMB = 800, 8000
	factory := func(worker int) sim.Policy {
		return sched.NewRandomPacker(z, tensor.NewRNG(23+uint64(worker)))
	}
	s, err := New(store, factory, itemParallelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := sched.NewRandomPacker(z, tensor.NewRNG(23)) // worker 0's seed
	for img := 0; img < 12; img++ {
		tk, err := submitNow(s, img)
		if err != nil {
			t.Fatal(err)
		}
		got := tk.Wait() // one item in flight at a time: uncontended
		want := sim.RunParallel(store, img, ref, deadlineMS, memMB)
		if len(got.Executed) != len(want.Executed) {
			t.Fatalf("image %d: served %v, sim ran %v", img, got.Executed, want.Executed)
		}
		for i := range want.Executed {
			if got.Executed[i] != want.Executed[i] {
				t.Fatalf("image %d: schedule diverges at %d: %v vs %v",
					img, i, got.Executed, want.Executed)
			}
		}
		if got.Recall != want.Recall {
			t.Fatalf("image %d: recall %v diverges from sim %v", img, got.Recall, want.Recall)
		}
		if got.ScheduleMS != want.MakespanMS {
			t.Fatalf("image %d: schedule %v ms != sim makespan %v ms", img, got.ScheduleMS, want.MakespanMS)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Counters(); st.PeakMemMB <= 0 || st.PeakMemMB > memMB+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, %v]", st.PeakMemMB, memMB)
	}
}

// TestItemParallelConcurrentItemsStayInBudget: several parallel items
// share the accountant; the pool must never over-commit, and every item
// must finish within its deadline on the nominal clock.
func TestItemParallelConcurrentItemsStayInBudget(t *testing.T) {
	cfg := itemParallelConfig(4)
	cfg.QueueCap = 16
	factory := func(worker int) sim.Policy {
		return sched.NewRandomPacker(z, tensor.NewRNG(31+uint64(worker)))
	}
	s, err := New(store, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(s)
	var tickets []*Ticket
	for i := 0; i < 60; i++ {
		tk, err := s.SubmitWait(context.Background(), i%store.NumScenes(), "")
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		res := tk.Wait()
		if res.ScheduleMS > 800+1e-9 {
			t.Fatalf("item %d makespan %v ms over the 800 ms deadline", i, res.ScheduleMS)
		}
		if res.Recall < 0 || res.Recall > 1+1e-9 {
			t.Fatalf("item %d recall %v", i, res.Recall)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Counters()
	if st.Completed != 60 {
		t.Fatalf("completed %d items", st.Completed)
	}
	if st.PeakMemMB <= 0 || st.PeakMemMB > cfg.MemoryBudgetMB+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, %v]", st.PeakMemMB, cfg.MemoryBudgetMB)
	}
	// The coordinator's busy time is the makespan, so utilization stays
	// a true worker-occupancy fraction even with intra-item parallelism.
	if u := done.summary().Utilization; u <= 0 || u > 1+1e-6 {
		t.Fatalf("utilization %v out of range", u)
	}
	if s.acct.inUse() != 0 {
		t.Fatalf("%v MB still reserved after drain", s.acct.inUse())
	}
}

// TestParallelLaunchesPaceOnTheWheel: the models an Algorithm-2 item
// launches at one scheduling point run concurrently, each paced on the
// timer wheel. Two 50 ms models at a 20x time scale sleep 1 s each, so
// the item takes about 1 s of wall clock; a pause that blocked the worker
// inside Start would run them back to back, in at least 2 s.
func TestParallelLaunchesPaceOnTheWheel(t *testing.T) {
	const blaze, genderFast = 6, 19
	for _, m := range []int{blaze, genderFast} {
		if z.Models[m].TimeMS != 50 {
			t.Fatalf("model %d (%s) takes %v ms, want 50", m, z.Models[m].Name, z.Models[m].TimeMS)
		}
	}
	cfg := itemParallelConfig(1)
	cfg.TimeScale = 20
	s, err := New(store, fixedFactory(blaze, genderFast), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	tk, err := s.SubmitWait(context.Background(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	wall := time.Since(t0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 2 || res.ScheduleMS != 50 {
		t.Fatalf("executed %v in %v ms, want both models side by side in 50 ms", res.Executed, res.ScheduleMS)
	}
	if wall < time.Second || wall >= 1500*time.Millisecond {
		t.Fatalf("the item took %v of wall clock, want from 1 s to 1.5 s: its two 1 s executions must overlap", wall)
	}
}

// TestSelectOverheadMeasured: the per-item selection overhead must be
// populated by the real server (it spends real CPU inside policy.Next).
func TestSelectOverheadMeasured(t *testing.T) {
	s, err := New(store, randomFactory(41), fast(2))
	if err != nil {
		t.Fatal(err)
	}
	done := collect(s)
	for i := 0; i < 10; i++ {
		if _, err := s.SubmitWait(context.Background(), i%store.NumScenes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := done.summary()
	if st.AvgSelectSec <= 0 {
		t.Fatalf("AvgSelectSec %v, want > 0", st.AvgSelectSec)
	}
	if st.AvgSelectSec > 1 {
		t.Fatalf("AvgSelectSec %v implausibly large", st.AvgSelectSec)
	}
}

func TestStatsMatchSimShape(t *testing.T) {
	cfg := Config{
		Config:    service.Config{Workers: 2, DeadlineSec: 0.5},
		TimeScale: 0.001,
	}
	arrivals := slices.Collect(service.Arrivals(60, 2000, 9))
	// Replay the trace the virtual-time sim would generate for cfg: the
	// arrival pacing collapses (2000 Hz at TimeScale 0.001), so the
	// server just absorbs the whole burst through SubmitWait.
	s, err := New(store, randomFactory(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(s)
	for i := range arrivals {
		if _, err := s.SubmitWait(context.Background(), i%store.NumScenes(), ""); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := done.summary()
	if got.Items != 60 {
		t.Fatalf("items %d", got.Items)
	}
	if got.AvgLatencySec < got.AvgQueueWaitSec {
		t.Fatalf("latency %v below queue wait %v", got.AvgLatencySec, got.AvgQueueWaitSec)
	}
	if got.AvgRecall <= 0 || got.AvgRecall > 1+1e-9 {
		t.Fatalf("recall %v", got.AvgRecall)
	}
	if got.ThroughputHz <= 0 || got.HorizonSec <= 0 {
		t.Fatalf("throughput %v horizon %v", got.ThroughputHz, got.HorizonSec)
	}
	if got.Utilization <= 0 || got.Utilization > 1+1e-6 {
		t.Fatalf("utilization %v out of range", got.Utilization)
	}
	// The virtual-time sim accepts the very same config and factory —
	// the shared-type contract this package was refactored for.
	simStats := service.Run(store, randomFactory(9), cfg.Config, arrivals)
	if simStats.Items != got.Items {
		t.Fatalf("sim labeled %d items, server %d", simStats.Items, got.Items)
	}
}

// TestExactlyExhaustedBudgetDoesNotPanic: when one worker's reservation
// consumes the whole budget, availability is exactly zero — which must
// never be handed to a policy (a zero constraint field means
// "unconstrained"), and must pause rather than end the other workers'
// schedules. Regression test for the serial-path zero-availability
// guard.
func TestExactlyExhaustedBudgetDoesNotPanic(t *testing.T) {
	cfg := fast(4)
	cfg.QueueCap = 16
	cfg.MemoryBudgetMB = 8000 // pose-openpose (model 12) fills it exactly
	s, err := New(store, fixedFactory(12, 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 40; i++ {
		tk, err := s.SubmitWait(context.Background(), i%store.NumScenes(), "")
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		res := tk.Wait()
		// Both models always run (50+400 ms fit the 500 ms deadline):
		// under contention the policy defers — never abandons — the
		// budget-filling model. The order depends on the live
		// availability at each ask.
		ran := map[int]bool{}
		for _, m := range res.Executed {
			ran[m] = true
		}
		if !ran[12] || !ran[6] {
			t.Fatalf("item %d executed %v, want both models 6 and 12", i, res.Executed)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Counters()
	if st.Completed != 40 {
		t.Fatalf("completed %d items", st.Completed)
	}
	if st.PeakMemMB != 8000 {
		t.Fatalf("peak %v MB, want the exactly-filled 8000", st.PeakMemMB)
	}
}

// recorder counts, by item, the resolutions a server makes and the
// commits its items' executors receive, and how many of those commits
// came after the item's ticket resolved.
type recorder struct {
	mu       sync.Mutex
	resolves map[int]int
	commits  map[int]int
	late     int
}

func newRecorder() *recorder {
	return &recorder{resolves: map[int]int{}, commits: map[int]int{}}
}

// committingItem is an executor that commits, as an ingested item's own
// executor does: its commits are recorded under seq, late when tk (nil
// for a server's own executor) is already Done.
type committingItem struct {
	oracle.Executor
	rc  *recorder
	tk  *Ticket
	seq int
}

func (c *committingItem) Commit(executed []int, scheduleMS float64) error {
	c.rc.mu.Lock()
	defer c.rc.mu.Unlock()
	c.rc.commits[c.seq]++
	if c.tk == nil {
		return nil
	}
	select {
	case <-c.tk.Done():
		c.rc.late++
	default:
	}
	return nil
}

// ticket is a resolved ticket tagged with its scene: the worker that takes
// it resolves it to scene seq's own committing executor, as a server
// resolves an ingested item.
func (rc *recorder) ticket(seq int) *Ticket {
	tk := NewTicket(strconv.Itoa(seq))
	tk.Resolve = func(int) (oracle.Executor, error) {
		rc.mu.Lock()
		rc.resolves[seq]++
		rc.mu.Unlock()
		ex := oracle.NewExternalItem(z, ds.Scenes[seq]).Executor()
		return &committingItem{Executor: ex, rc: rc, tk: tk, seq: seq}, nil
	}
	return tk
}

// TestCorpusLifecycleCalls checks the contract between a server and the
// items that end their own lifecycle: every resolved item a worker runs
// is resolved once and commits exactly once, before its ticket resolves;
// a refused admission resolves and commits nothing; and index tickets,
// admitted last, never commit, though the server's own executor could.
// Schedules of ≈25 ms wall keep both workers and the one queue slot busy
// through the submit burst, so most of it is refused; the waiting
// admissions after it all run.
func TestCorpusLifecycleCalls(t *testing.T) {
	rc := newRecorder()
	cfg := fast(2)
	cfg.QueueCap = 1
	cfg.TimeScale = 0.05
	s, err := New(&committingItem{Executor: store, rc: rc, seq: -1}, randomFactory(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	rejected := 0
	for i := 0; i < 12; i++ {
		tk := rc.ticket(i)
		err := s.Admit(nil, tk, 0)
		if errors.Is(err, ErrQueueFull) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i := 12; i < 15; i++ { // waiting admissions, which all run
		tk := rc.ticket(i)
		if err := s.Admit(context.Background(), tk, 0); err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	const indexed = 3
	for i := 0; i < indexed; i++ {
		tk, err := s.SubmitWait(context.Background(), i, "")
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		res := tk.Wait()
		if len(res.Outputs) != len(res.Executed) {
			t.Fatalf("result outputs %d not parallel to executed %d", len(res.Outputs), len(res.Executed))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rejected == 0 {
		t.Fatal("no admission was refused: the test never exercised the shed path")
	}
	if n := rc.commits[-1]; n != 0 {
		t.Fatalf("the server's own executor committed %d times for %d index tickets; want 0", n, indexed)
	}
	if len(rc.resolves) != len(tickets)-indexed || len(rc.commits) != len(tickets)-indexed {
		t.Fatalf("%d items resolved, %d committed, for %d admitted resolved tickets (%d refused)",
			len(rc.resolves), len(rc.commits), len(tickets)-indexed, rejected)
	}
	for _, tk := range tickets[:len(tickets)-indexed] {
		seq, _ := strconv.Atoi(tk.Wait().Tag)
		if rc.resolves[seq] != 1 || rc.commits[seq] != 1 {
			t.Fatalf("item %d resolved %d and committed %d times; want once each", seq, rc.resolves[seq], rc.commits[seq])
		}
	}
	if rc.late != 0 {
		t.Fatalf("%d commits ran after their ticket resolved", rc.late)
	}
}

// TestStallIsAReserveWaitSpan: under Algorithm 2 with the accountant
// contended, a declined ask that waits for a release is recorded as a
// timed reserve-wait span noted "stall" — so the item's critical path
// attributes the wait to reserve-wait, not "other", the span count
// agrees with ams_mem_reserve_wait_seconds, and the select and commit
// spans carry the budget each decision saw.
func TestStallIsAReserveWaitSpan(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4)
	tracer.SetTimeScale(0.001)
	cfg := itemParallelConfig(1)
	cfg.Metrics = NewMetrics(reg, z.Models)
	cfg.Tracer = tracer
	// Decline, then facedet-blaze (50 ms, 500 MB), then decline for good.
	policy := func(int) sim.Policy { return &scriptPolicy{script: []int{-1, 6}} }
	s, err := New(store, policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Another tenant holds all but 200 MB, so the first ask is declined.
	const held = 7800
	s.acct.reserve(held)
	tk, err := s.SubmitWait(context.Background(), 0, "stalled")
	if err != nil {
		t.Fatal(err)
	}
	for s.acct.waitCount() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	s.acct.Release(held, time.Time{})
	if res := tk.Wait(); len(res.Executed) != 1 || res.Executed[0] != 6 {
		t.Fatalf("executed %v, want [6] once the memory freed", res.Executed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tr, ok := tracer.ByTag("stalled")
	if !ok {
		t.Fatal("no trace published")
	}
	var stalls int
	var asks []obs.Span
	for _, sp := range tr.Spans {
		switch {
		case sp.Name == obs.SpanReserveWait && sp.Note == "stall":
			stalls++
			if sp.AvailMemMB != 200 || sp.RemainingMS != 800 || sp.EndUS-sp.StartUS < 4000 {
				t.Errorf("stall span must time the wait and carry what the declined ask saw: %+v", sp)
			}
		case sp.Name == obs.SpanSelect:
			asks = append(asks, sp)
		case sp.Name == obs.SpanCommit && sp.RemainingMS != 750:
			t.Errorf("commit span remaining_ms = %v, want the 750 ms the schedule left", sp.RemainingMS)
		}
	}
	if waits := cfg.Metrics.ReserveWait.Count(); stalls != 1 || waits != 1 {
		t.Fatalf("%d stall spans vs %d reserve-wait observations, want 1 and 1", stalls, waits)
	}
	// Four asks: declined at 200 MB, model 6 at the freed 8000 MB, then
	// declined beside its own 500 MB reservation and again after it.
	if len(asks) != 4 || asks[0].Model != -1 || asks[0].AvailMemMB != 200 || asks[0].Note == "" ||
		asks[1].Model != 6 || asks[1].AvailMemMB != 8000 || asks[1].RemainingMS != 800 ||
		asks[2].Model != -1 || asks[2].AvailMemMB != 7500 || asks[3].RemainingMS != 750 {
		t.Fatalf("select spans must carry each ask's pick and budget: %+v", asks)
	}
	stages := tr.CriticalPath()
	if top := stages[0]; top.Name != obs.SpanReserveWait || top.Model != -1 || top.WallUS < 4000 {
		t.Fatalf("critical path must attribute the stall to reserve-wait: %+v", stages)
	}
}

// TestCloseFailsOnHeldMemory: a server that drains with memory still
// claimed fails Close, naming the megabytes — the release half of the
// accountant's contract, checked by every test that closes a server.
func TestCloseFailsOnHeldMemory(t *testing.T) {
	s, err := New(store, fixedFactory(6), itemParallelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.SubmitWait(context.Background(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()
	s.acct.reserve(300) // never released
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "300 MB of memory still held") {
		t.Fatalf("Close = %v, want an error naming the 300 MB still held", err)
	}
}
