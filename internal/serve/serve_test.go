package serve

import (
	"context"
	"errors"
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
		if !t.Executed(m) && c.Allows(z.Models[m]) {
			return m
		}
	}
	return -1
}
func (p *fixedPolicy) Observe(int, zoo.Output) {}

func fixedFactory(models ...int) service.PolicyFactory {
	return func(worker int) sim.Policy { return &fixedPolicy{models: models} }
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
		{"negative stats window", func(c *Config) { c.StatsWindow = -1 }, "stats window"},
		{"exhausted budget", func(c *Config) { c.MemoryBudgetMB = 100 }, "smallest model"},
		{"negative batch size", func(c *Config) { c.BatchSize = -2 }, "batch size"},
		{"negative batch hold", func(c *Config) { c.BatchSize = 4; c.BatchHoldMS = -1 }, "batch hold"},
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
	s, err := New(store, randomFactory(1), fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(-1, ""); err == nil {
		t.Fatal("negative image accepted")
	}
	if _, err := s.Submit(store.NumScenes(), ""); err == nil {
		t.Fatal("out-of-range image accepted")
	}
	tk, err := s.Submit(0, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := tk.Wait()
	if res.Image != 0 || res.Recall < 0 || res.Recall > 1+1e-9 {
		t.Fatalf("bad result %+v", res)
	}
	if res.ScheduleMS > 500+1e-9 {
		t.Fatalf("schedule %v ms exceeds the 500 ms deadline", res.ScheduleMS)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Submit(0, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := s.SubmitWait(context.Background(), 0, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWait after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
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

	first, err := s.Submit(0, "")
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Give the worker time to dequeue the first item and start sleeping.
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Submit(1, ""); err != nil {
		t.Fatalf("second submit should occupy the queue: %v", err)
	}
	if _, err := s.Submit(2, ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected count %d, want 1", got)
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
	if _, err := s.Submit(0, ""); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Submit(1, ""); err != nil {
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
	st := s.Stats()
	if st.Items != items {
		t.Fatalf("completed %d items, want %d", st.Items, items)
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
	if st.AvgRecall <= 0 {
		t.Fatalf("average recall %v", st.AvgRecall)
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
	st := s.Stats()
	if st.Items != 40 {
		t.Fatalf("items %d", st.Items)
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
	tk, err := s.Submit(0, "")
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
		tk, err := s.Submit(img, "")
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
	if peak := s.Stats().PeakMemMB; peak <= 0 || peak > memMB+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, %v]", peak, memMB)
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
	st := s.Stats()
	if st.Items != 60 {
		t.Fatalf("completed %d items", st.Items)
	}
	if st.PeakMemMB <= 0 || st.PeakMemMB > cfg.MemoryBudgetMB+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, %v]", st.PeakMemMB, cfg.MemoryBudgetMB)
	}
	// The coordinator's busy time is the makespan, so utilization stays
	// a true worker-occupancy fraction even with intra-item parallelism.
	if st.Utilization <= 0 || st.Utilization > 1+1e-6 {
		t.Fatalf("utilization %v out of range", st.Utilization)
	}
	if s.acct.inUse() != 0 {
		t.Fatalf("%v MB still reserved after drain", s.acct.inUse())
	}
}

// TestSelectOverheadMeasured: the per-item selection overhead must be
// populated by the real server (it spends real CPU inside policy.Next).
func TestSelectOverheadMeasured(t *testing.T) {
	s, err := New(store, randomFactory(41), fast(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.SubmitWait(context.Background(), i%store.NumScenes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.AvgSelectSec <= 0 {
		t.Fatalf("AvgSelectSec %v, want > 0", st.AvgSelectSec)
	}
	if st.AvgSelectSec > 1 {
		t.Fatalf("AvgSelectSec %v implausibly large", st.AvgSelectSec)
	}
}

func TestStatsMatchSimShape(t *testing.T) {
	cfg := Config{
		Config: service.Config{
			Workers: 2, ArrivalRateHz: 2000, DeadlineSec: 0.5, Items: 60, Seed: 9,
		},
		TimeScale: 0.001,
	}
	// Replay the trace the virtual-time sim would generate for cfg: the
	// arrival pacing collapses (2000 Hz at TimeScale 0.001), so the
	// server just absorbs the whole burst through SubmitWait.
	s, err := New(store, randomFactory(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range service.Arrivals(cfg.Items, cfg.ArrivalRateHz, cfg.Seed) {
		if _, err := s.SubmitWait(context.Background(), i%store.NumScenes(), ""); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
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
	simStats := service.Run(store, randomFactory(9), cfg.Config)
	if simStats.Items != got.Items {
		t.Fatalf("sim labeled %d items, server %d", simStats.Items, got.Items)
	}
}

// TestStatsWindowBoundsRetention: a long-running server keeps only the
// most recent StatsWindow records while Completed counts everything.
func TestStatsWindowBoundsRetention(t *testing.T) {
	cfg := fast(2)
	cfg.StatsWindow = 10
	s, err := New(store, fixedFactory(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := s.SubmitWait(context.Background(), i%store.NumScenes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != 25 {
		t.Fatalf("completed %d, want 25", st.Completed)
	}
	if st.Items != 10 {
		t.Fatalf("summarized %d records, want the 10-item window", st.Items)
	}
	// Windowed throughput/utilization are measured over the window's own
	// span, so they must stay sane instead of decaying with server age.
	if st.ThroughputHz <= 0 {
		t.Fatalf("windowed throughput %v", st.ThroughputHz)
	}
	if st.Utilization <= 0 || st.Utilization > 1+1e-6 {
		t.Fatalf("windowed utilization %v out of range", st.Utilization)
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
	st := s.Stats()
	if st.Items != 40 {
		t.Fatalf("completed %d items", st.Items)
	}
	if st.PeakMemMB != 8000 {
		t.Fatalf("peak %v MB, want the exactly-filled 8000", st.PeakMemMB)
	}
}

// recordingCorpus records the server's lifecycle calls so the tests can
// assert the Begin/Commit/Abort pairing contract.
type recordingCorpus struct {
	mu      sync.Mutex
	begins  map[int]int
	commits map[int]int
	aborts  map[int]int
}

func newRecordingCorpus() *recordingCorpus {
	return &recordingCorpus{
		begins:  map[int]int{},
		commits: map[int]int{},
		aborts:  map[int]int{},
	}
}

func (rc *recordingCorpus) BeginItem(item int) {
	rc.mu.Lock()
	rc.begins[item]++
	rc.mu.Unlock()
}

func (rc *recordingCorpus) CommitItem(item int, executed []int, scheduleMS float64) {
	rc.mu.Lock()
	rc.commits[item]++
	rc.mu.Unlock()
}

func (rc *recordingCorpus) AbortItem(item int) {
	rc.mu.Lock()
	rc.aborts[item]++
	rc.mu.Unlock()
}

// TestCorpusLifecycleCalls checks the serve<->corpus contract: every
// admission Begins exactly once, every completion Commits exactly once
// before the ticket resolves, and failed admissions Abort their Begin.
func TestCorpusLifecycleCalls(t *testing.T) {
	rc := newRecordingCorpus()
	cfg := fast(2)
	cfg.QueueCap = 1
	cfg.Corpus = rc
	s, err := New(store, randomFactory(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	rejected := 0
	for i := 0; i < 12; i++ {
		tk, err := s.Submit(i%store.NumItems(), "")
		if errors.Is(err, ErrQueueFull) {
			rejected++
			continue
		}
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
		// Commit-of-result is the boundary: by Wait time the commit has
		// been journaled.
		rc.mu.Lock()
		committed := rc.commits[res.Image]
		rc.mu.Unlock()
		if committed == 0 {
			t.Fatalf("item %d resolved before its commit", res.Image)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var begins, commits, aborts int
	for _, n := range rc.begins {
		begins += n
	}
	for _, n := range rc.commits {
		commits += n
	}
	for _, n := range rc.aborts {
		aborts += n
	}
	if commits != len(tickets) {
		t.Fatalf("%d commits for %d completed items", commits, len(tickets))
	}
	if aborts != rejected {
		t.Fatalf("%d aborts for %d rejected admissions", aborts, rejected)
	}
	if begins != commits+aborts {
		t.Fatalf("begin/commit+abort imbalance: %d vs %d+%d", begins, commits, aborts)
	}
}

// TestSubmitAfterCloseAborts checks the Begin released on the closed path.
func TestSubmitAfterCloseAborts(t *testing.T) {
	rc := newRecordingCorpus()
	cfg := fast(1)
	cfg.Corpus = rc
	s, err := New(store, randomFactory(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(0, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := s.SubmitWait(context.Background(), 0, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit-wait after close: %v", err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.begins[0] != rc.aborts[0] || rc.begins[0] == 0 {
		t.Fatalf("closed-server admissions: %d begins, %d aborts", rc.begins[0], rc.aborts[0])
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
	s.acct.release(held)
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
