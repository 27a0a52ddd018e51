// Package serve is the real-time counterpart of internal/service: a
// goroutine-based labeling server that actually executes concurrent
// work instead of simulating it in virtual time. Items are admitted
// onto a bounded queue and dispatched to a pool of workers; each worker
// owns one scheduling policy (built by the shared service.PolicyFactory,
// one per worker as in LabelBatch) and labels its item
// under the per-item deadline. The joint deadline + GPU-memory setting
// of Algorithm 2 is enforced globally: all workers reserve model
// footprints against one shared memory accountant before executing, so
// the server as a whole never commits more GPU memory than the
// configured budget, and workers block (backpressure) when the budget
// is saturated.
//
// Policies receive the accountant's live availability through
// sim.Constraints on every selection, so a model that does not fit the
// current headroom — including one bigger than the whole budget — is
// simply skipped by the policy, which keeps scheduling the remaining
// feasible models. When a policy declines while other items still hold
// memory, the machine waits for a release and the executor asks again
// rather than ending the item's schedule on a transient shortage.
//
// A worker labels an item by running the one schedule executor,
// sim.Execute, on its own machine (see machine): the same loop the
// virtual-time simulators run, with memory answered by the shared
// accountant and executions sleeping on the timer wheel. By default one
// model is in flight at a time (Algorithm 1). With Config.ItemParallel
// the in-flight set is bounded by the memory budget instead of the
// worker count (Algorithm 2): the policy's selections sleep concurrently,
// each holding its reservation, and commit in nominal-finish order, so
// an uncontended item reproduces the virtual-time parallel schedule —
// and its recall — exactly.
//
// Admission control is explicit and one call, Admit: without a context
// it rejects with ErrQueueFull when the bounded queue is saturated, with
// one it blocks until space frees (SubmitWait), and New rejects
// configurations that could never make progress (no workers, a memory
// budget below the smallest model). A shard router (internal/shard)
// admits its own annotated tickets into the same queue — it is the only
// queue an item waits in — and a worker whose queue is empty asks the
// router to steal from a sibling before it parks. A ticket names either
// an index into the server's own executor or a Resolve that yields the
// item's own executor; the worker that runs it resolves it, so a ticket
// that is refused or stolen has nothing to undo. An item's own executor
// that commits (an ingested item, whose owner journals it) commits once,
// on the finishing worker, before its ticket resolves.
//
// With Config.BatchSize the server coalesces demand across items:
// workers hand their executions to a cross-item batching runtime
// (internal/batch) that collects same-model requests from the whole
// pool into one batched execution with sub-linear cost. Deadline
// accounting stays nominal (a batched execution still charges the item
// TimeMS) and policies never see the lanes, so without a memory budget
// schedules — and recall — are unchanged by batching. With a budget and
// serial schedules the batch owns the footprint: one claim per batch
// instead of one per request, granted in order by the accountant's line
// — the memory coalescing that buys throughput on hot-model,
// memory-bound traces. Those workers reserve nothing, so their policies
// are shown the whole budget rather than live headroom, and a schedule
// depends only on (agent, item, budget): the same on any worker count,
// though it may differ from an unbatched multi-worker server's. With
// BatchSize 1 on one worker the runtime reproduces the unbatched
// reserve → sleep → release sequence exactly.
//
// Model execution is simulated by sleeping the model's nominal duration
// scaled by Config.TimeScale, so tests and benchmarks can run the real
// concurrent machinery thousands of times faster than production pacing
// while keeping every scheduling decision, reservation, and statistic
// identical. All sleeps share one timer wheel (internal/vtime) instead
// of parking a goroutine per execution in the runtime timer heap. The
// server keeps counters, not records: an ItemResult carries its item's
// instants, and ItemResult.Record puts them on the simulated clock
// (wall-clock divided by TimeScale) for service.Summarize, the reduction
// the virtual-time sim uses.
// One caveat: the scheduler's real CPU work (the agent's Q-network
// forward passes — the paper's Table III selection overhead) is not
// scaled, so very small TimeScale values magnify it relative to model
// time and inflate the simulated-clock latencies; ItemResult.SelectSec
// measures that overhead per item.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ams/internal/batch"
	"ams/internal/obs"
	"ams/internal/oracle"
	"ams/internal/service"
	"ams/internal/sim"
	"ams/internal/vtime"
	"ams/internal/zoo"
)

// Sentinel errors of the admission path.
var (
	ErrQueueFull = errors.New("serve: queue full")
	ErrClosed    = errors.New("serve: server closed")
)

// Config parameterizes a server. The embedded service.Config, the
// shape the virtual-time sim runs under too, supplies Workers,
// DeadlineSec, MemoryBudgetMB and ItemParallel.
type Config struct {
	service.Config

	// QueueCap bounds the admission queue (default 2*Workers). Together
	// with the worker pool it caps in-flight items at QueueCap+Workers,
	// stolen items included: a worker runs one item at a time.
	QueueCap int

	// BatchSize, when positive, turns on cross-item batching: same-model
	// demand from the whole worker pool is coalesced into batched
	// executions of at most BatchSize requests (see internal/batch).
	// Zero disables batching; one runs every request through the
	// batching machinery alone, reproducing the unbatched execution
	// sequence exactly.
	BatchSize int

	// BatchHoldMS bounds, on the simulated clock, how long a lone
	// request waits in its model's lane for batch-mates before its batch
	// flushes anyway. Zero defaults to defaultBatchHoldMS when batching
	// is on. Only meaningful with BatchSize > 1, and only where no batch
	// owns a footprint (no budget, or ItemParallel): a lane that holds
	// its requests' footprint seals when the accountant grants it.
	BatchHoldMS float64

	// TimeScale is the real seconds slept per simulated second of model
	// time (default 1.0, production pacing; at least 1e-9). Tests use
	// small values to exercise the full concurrent machinery quickly.
	TimeScale float64

	// Metrics, when non-nil, receives per-stage telemetry (see
	// NewMetrics). Instruments only count and measure — they never feed
	// back into scheduling — so an instrumented server's schedules are
	// bit-identical to an uninstrumented one's. Nil disables the layer:
	// every hook degrades to one nil check.
	Metrics *Metrics

	// Tracer, when non-nil, records a bounded span tree per item
	// (selection asks with the budget they saw, memory stalls, batching,
	// execution, commit) retrievable by ticket tag. Nil disables tracing.
	Tracer *obs.Tracer
}

// committer is an item's own executor that ends the item's lifecycle
// itself (oracle's ExternalItem view, whose owner journals the commit).
// The worker that finishes a Resolve ticket commits it — the item's
// explicit lifetime boundary: after commit the owner may evict the
// item's memoized outputs, which is safe because every completion's
// outputs are captured into its ItemResult first. A ticket that never
// reaches a worker never commits, and neither does an index ticket.
type committer interface {
	Commit(executed []int, scheduleMS float64) error
}

// minTimeScale is the smallest Config.TimeScale. Below it a simulated
// second is shorter than a time.Duration's nanosecond, and the server's
// clock, wall time divided by the scale, leaves the float range: one
// served item read an infinite horizon and NaN latencies at 5e-324.
const minTimeScale = 1e-9

// defaultBatchHoldMS is the flush hold applied when batching is enabled
// without an explicit Config.BatchHoldMS: long enough for concurrent
// workers to pile demand into a hot model's lane, short next to any
// realistic per-item deadline.
const defaultBatchHoldMS = 10.0

// ItemResult is the outcome of one labeled item. It is self-contained:
// Outputs carries the executed models' results by value, captured before
// the commit is journaled, so reading a result never touches the
// executor — the item's memo may already be evicted by then. Its
// instants are wall-clock; Record puts them on a simulated timeline.
type ItemResult struct {
	Image      int          // item index in the server's executor; -1 for a resolved item
	Tag        string       // caller-supplied identifier, echoed verbatim
	Shard      int          // the shard that ran the item (Ticket.Shard)
	Executed   []int        // model IDs in execution order
	Outputs    []zoo.Output // the executed models' outputs, parallel to Executed
	ScheduleMS float64      // summed nominal model time; the makespan in ItemParallel mode
	Recall     float64
	HasRecall  bool // whether the item's ground truth (and so Recall) is known
	// Arrival is the submit, Start the dequeue by the worker that resolved
	// and ran the item, Finish its completion.
	Arrival, Start, Finish time.Time
	SelectSec              float64 // real seconds inside the policy's Next, deliberately unscaled
}

// Record is the item's completion record on the simulated timeline that
// starts at epoch: wall-clock seconds since epoch divided by scale, the
// server's TimeScale.
func (r *ItemResult) Record(epoch time.Time, scale float64) service.Record {
	return service.Record{
		ArrivalSec: r.Arrival.Sub(epoch).Seconds() / scale,
		StartSec:   r.Start.Sub(epoch).Seconds() / scale,
		FinishSec:  r.Finish.Sub(epoch).Seconds() / scale,
		BusySec:    r.ScheduleMS / 1000,
		Recall:     r.Recall,
		HasRecall:  r.HasRecall,
		SelectSec:  r.SelectSec,
	}
}

// Ticket tracks one submitted item to completion. It is the serving
// path's only ticket: a shard router creates it where the caller's submit
// enters and admits it into the home shard's queue (Admit), so arrival —
// and with it WaitSec, LatencySec, the queue_wait span and the SLOs —
// covers queueing and resolution on whichever shard runs it.
type Ticket struct {
	// The router's annotation, written before admission (Shard again by a
	// steal) and read by the worker and after Done: where placement put
	// the item and where it ran (they differ exactly when it was stolen),
	// its affinity hint, and its resolution, which the worker taking it
	// calls with Shard. Resolve returns the item's own executor, whose
	// index 0 is the item. Zero on a bare server.
	Home, Shard int
	Hint        []int
	Resolve     func(shard int) (oracle.Executor, error)

	image    int // the executor index; -1 for a Resolve ticket
	tag      string
	arrival  time.Time
	dequeued time.Time // when a worker took the item and resolved it
	done     chan struct{}
	res      ItemResult
	err      error // why the item never ran: its resolution failed
}

// NewTicket stamps an item's arrival. The ticket resolves exactly once,
// through the server whose worker takes it.
func NewTicket(tag string) *Ticket {
	return &Ticket{tag: tag, arrival: time.Now(), done: make(chan struct{})}
}

// Done is closed when the item has been labeled or has failed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket resolves and returns its result,
// meaningful when Err is nil. The result is committed before Done
// closes: its Outputs are captured by value, so Wait never reads the
// executor and is unaffected by the item's owner evicting its memo after
// commit.
func (t *Ticket) Wait() ItemResult {
	<-t.done
	return t.res
}

// Err blocks like Wait and reports why the item never ran; nil for every
// ticket a server's own SubmitWait returned.
func (t *Ticket) Err() error {
	<-t.done
	return t.err
}

// Server is a running labeling server. Create one with New, feed it with
// Admit or SubmitWait, and stop it with Close, which drains the queue.
type Server struct {
	ex      oracle.Executor
	cfg     Config
	factory service.PolicyFactory
	acct    *accountant    // nil when no memory budget is configured
	wheel   *vtime.Wheel   // all simulated executions sleep on it
	batcher *batch.Batcher // nil when batching is not configured
	// batchOwnsMem: serial schedules on a batched, budgeted server leave
	// the footprint to the batch's grant (see machine.Start and FreeMB).
	batchOwnsMem bool
	slots        chan struct{}    // one token per queued ticket: QueueCap bounds the queue
	stop         chan struct{}    // closed by Close to wake Admit calls waiting for a slot
	wg           sync.WaitGroup   // workers
	onFinish     func(ItemResult) // the completion hook (OnFinish); nil on a bare server
	steal        func() *Ticket   // the router's idle hook (OnIdle); nil on a bare server

	mu        sync.Mutex // guards closed, queue, counters
	cond      *sync.Cond // on mu: idle workers park here
	queue     []*Ticket  // the admission FIFO, oldest first
	gen       uint64     // bumped by Nudge
	running   int        // tickets taken by a worker, not yet finished
	closed    bool
	completed int64
	failed    int64
	rejected  int64
}

// Prepare validates cfg for a server over ex's models and returns it
// with its defaults filled in. New runs it first; a caller that checks a
// configuration without starting a server (the virtual-time simulation
// of one) runs it to apply the same rules.
func Prepare(ex oracle.Executor, cfg Config) (Config, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"deadline", cfg.DeadlineSec},
		{"memory budget", cfg.MemoryBudgetMB},
		{"time scale", cfg.TimeScale},
		{"batch hold", cfg.BatchHoldMS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return cfg, fmt.Errorf("serve: non-finite %s %v", f.name, f.v)
		}
	}
	if cfg.Workers <= 0 {
		return cfg, fmt.Errorf("serve: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.DeadlineSec <= 0 {
		return cfg, fmt.Errorf("serve: need a positive per-item deadline, got %v", cfg.DeadlineSec)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	if cfg.TimeScale < minTimeScale {
		return cfg, fmt.Errorf("serve: time scale %v is below %v: a simulated second would be shorter than a nanosecond",
			cfg.TimeScale, minTimeScale)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 2 * cfg.Workers
	}
	if cfg.QueueCap < 0 {
		return cfg, fmt.Errorf("serve: negative queue capacity %d", cfg.QueueCap)
	}
	if cfg.MemoryBudgetMB < 0 {
		return cfg, fmt.Errorf("serve: negative memory budget %v MB", cfg.MemoryBudgetMB)
	}
	if cfg.ItemParallel && cfg.MemoryBudgetMB <= 0 {
		return cfg, errors.New("serve: per-item parallel execution requires a memory budget (it bounds the parallelism)")
	}
	if cfg.MemoryBudgetMB > 0 {
		smallest := ex.Model(0).MemMB
		for m := 1; m < ex.NumModels(); m++ {
			if mb := ex.Model(m).MemMB; mb < smallest {
				smallest = mb
			}
		}
		if cfg.MemoryBudgetMB < smallest {
			return cfg, fmt.Errorf("serve: memory budget %v MB below the smallest model (%v MB); no model could ever run",
				cfg.MemoryBudgetMB, smallest)
		}
	}
	if cfg.BatchSize < 0 {
		return cfg, fmt.Errorf("serve: negative batch size %d", cfg.BatchSize)
	}
	if cfg.BatchHoldMS < 0 {
		return cfg, fmt.Errorf("serve: negative batch hold %v ms", cfg.BatchHoldMS)
	}
	if cfg.BatchSize > 0 && cfg.BatchHoldMS == 0 {
		cfg.BatchHoldMS = defaultBatchHoldMS
	}
	// Every sleep is scaled into a time.Duration; one that overflows it
	// would end at once.
	longest := cfg.BatchHoldMS
	for m := 0; m < ex.NumModels(); m++ {
		longest = max(longest, ex.Model(m).TimeMS, ex.Model(m).BatchCostMS(cfg.BatchSize))
	}
	if longest*cfg.TimeScale*float64(time.Millisecond) >= math.MaxInt64 {
		return cfg, fmt.Errorf("serve: time scale %v overflows the scaled sleep of %v ms", cfg.TimeScale, longest)
	}
	return cfg, nil
}

// New validates the configuration (Prepare) and starts the worker pool.
func New(ex oracle.Executor, factory service.PolicyFactory, cfg Config) (*Server, error) {
	if ex == nil || factory == nil {
		return nil, errors.New("serve: nil executor or policy factory")
	}
	cfg, err := Prepare(ex, cfg)
	if err != nil {
		return nil, err
	}
	var acct *accountant
	if cfg.MemoryBudgetMB > 0 {
		acct = newAccountant(cfg.MemoryBudgetMB)
		if cfg.Metrics != nil {
			acct.waitHist = cfg.Metrics.ReserveWait
		}
	}
	s := &Server{
		ex:      ex,
		cfg:     cfg,
		factory: factory,
		acct:    acct,
		wheel:   vtime.NewWheel(),
		slots:   make(chan struct{}, cfg.QueueCap),
		stop:    make(chan struct{}),
		queue:   make([]*Ticket, 0, cfg.QueueCap),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.BatchSize > 0 {
		s.batchOwnsMem = acct != nil && !cfg.ItemParallel
		models := make([]*zoo.Model, ex.NumModels())
		for m := range models {
			models[m] = ex.Model(m)
		}
		var mem batch.Memory
		if acct != nil {
			mem = acct
		}
		var bm *batch.Metrics
		if cfg.Metrics != nil {
			bm = cfg.Metrics.Batch
		}
		s.batcher = batch.New(models, mem, s.wheel, batch.Config{
			MaxBatch:  cfg.BatchSize,
			MaxHoldMS: cfg.BatchHoldMS,
			TimeScale: cfg.TimeScale,
			Metrics:   bm,
		})
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

// SubmitWait admits one item, blocking while the queue is full until
// space frees, the context is cancelled, or the server closes. The tag is
// an opaque caller identifier echoed in the item's result.
func (s *Server) SubmitWait(ctx context.Context, item int, tag string) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tk := NewTicket(tag)
	if err := s.Admit(ctx, tk, item); err != nil {
		return nil, err
	}
	return tk, nil
}

// Admit queues tk for item. With a nil ctx it sheds when the queue is
// full: ErrQueueFull, counted. Otherwise it waits for a slot until ctx is
// cancelled or the server closes. A ticket without Resolve has its index
// checked here, so a bad one fails the caller at once; a Resolve ticket
// ignores item, and the worker that takes it resolves it.
func (s *Server) Admit(ctx context.Context, tk *Ticket, item int) error {
	tk.image = -1
	if tk.Resolve == nil {
		if err := s.checkIndex(item); err != nil {
			return err
		}
		tk.image = item
	}
	if ctx != nil {
		select {
		case s.slots <- struct{}{}:
		case <-s.stop:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		if ctx != nil {
			s.releaseSlot()
		}
		return ErrClosed
	case ctx == nil && !s.takeSlot():
		s.rejected++
		return ErrQueueFull
	}
	s.queue = append(s.queue, tk)
	s.cond.Signal()
	return nil
}

// takeSlot takes a free queue slot without waiting.
func (s *Server) takeSlot() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// releaseSlot gives back the slot a ticket leaving the queue held. It
// never blocks, so it is safe under s.mu.
func (s *Server) releaseSlot() {
	select {
	case <-s.slots:
	default:
	}
}

// checkIndex reports an executor index out of range.
func (s *Server) checkIndex(item int) error {
	if item < 0 || item >= s.ex.NumItems() {
		return fmt.Errorf("serve: item %d out of range [0,%d)", item, s.ex.NumItems())
	}
	return nil
}

// OnFinish sets the completion hook, before the first admission: it runs
// on the finishing worker for every labeled item, after its result is
// committed and counted and before its ticket's Done closes. It is how
// a results stream and a stats window collect completions without a
// goroutine parked per ticket.
func (s *Server) OnFinish(fn func(ItemResult)) { s.onFinish = fn }

// OnIdle installs a shard router's steal hook, before the first
// admission: a worker whose queue is empty calls it before parking and
// runs the ticket it returns, if any.
func (s *Server) OnIdle(steal func() *Ticket) {
	s.mu.Lock()
	s.steal = steal
	s.mu.Unlock()
}

// StealOldest removes the oldest queued ticket, or returns nil. The
// ticket gives back its slot here; nothing resolved it yet, so the
// thief's worker runs it as its own.
func (s *Server) StealOldest() *Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	tk := s.queue[0]
	s.queue = slices.Delete(s.queue, 0, 1)
	s.releaseSlot()
	return tk
}

// Nudge tells the server a sibling has queued an item: a parked worker
// wakes to try its steal hook. The generation count covers a worker
// between a steal that found nothing and its park.
func (s *Server) Nudge() {
	s.mu.Lock()
	s.gen++
	s.cond.Signal()
	s.mu.Unlock()
}

// Live is a server's instantaneous queue state: tickets queued, and
// taken and not yet finished.
type Live struct{ Queued, Running int }

// Live reads the queue state.
func (s *Server) Live() Live {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Live{Queued: len(s.queue), Running: s.running}
}

// Load is the queued plus running count, LeastLoaded placement's measure.
func (s *Server) Load() int {
	l := s.Live()
	return l.Queued + l.Running
}

// Close stops admission, drains the queue, and waits for in-flight items
// to complete. It is safe to call once; later calls return ErrClosed.
// Once drained, the accountant must hold nothing: every footprint
// claimed was given back. Close returns an error naming the megabytes
// still held otherwise.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.cond.Broadcast() // parked workers drain the queue and exit
	s.mu.Unlock()
	close(s.stop) // wake Admit calls blocked on a full queue
	s.wg.Wait()
	// The pool has drained: no execution sleeps or hold timers can be
	// armed anymore, so the wheel's dispatcher can go.
	s.wheel.Stop()
	if s.acct != nil {
		if held := s.acct.inUse(); held > 1e-9 {
			return fmt.Errorf("serve: closed with %v MB of memory still held", held)
		}
	}
	return nil
}

// worker owns one policy instance (and, through the factory, one agent
// fork) and labels items until the server closes with its queue drained:
// each item is one run of the shared executor on this worker's machine,
// under the configured limits. The worker's sim.Run and machine carry
// the per-item state from item to item, so serving an item allocates
// only what its caller receives.
func (s *Server) worker(w int) {
	defer s.wg.Done()
	mach := &machine{s: s}
	sel := &selector{Policy: s.factory(w), mach: mach}
	lim := s.cfg.Limits()
	run := new(sim.Run) // the per-item state, reused item after item
	for {
		tk := s.next()
		if tk == nil {
			return
		}
		ex, i, err := s.resolve(tk)
		if err != nil {
			s.mu.Lock()
			s.running--
			s.failed++
			s.mu.Unlock()
			tk.err = err
			close(tk.done)
			continue
		}
		tk.dequeued = time.Now()
		trace := s.cfg.Tracer.Begin(tk.image, tk.tag)
		trace.SetShards(tk.Home, tk.Shard)
		root := trace.Root(tk.arrival)
		trace.SpanBetween(obs.SpanQueueWait, root, -1, tk.arrival, tk.dequeued)
		mach.trace, sel.selectSec = trace, 0
		res := run.Execute(mach, ex, i, sel, lim)
		run.Release() // the worker keeps the Run, not the item
		s.finish(tk, ex, res, sel.selectSec, trace)
	}
}

// next blocks until the worker has a ticket — its queue's oldest, else
// one the steal hook took from a sibling — or returns nil once the
// server has closed with its queue drained.
func (s *Server) next() (tk *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen - 1 // the generation the last steal looked at: none yet
	for len(s.queue) == 0 && !s.closed && tk == nil {
		if s.steal == nil || gen == s.gen {
			s.cond.Wait()
			continue
		}
		gen = s.gen
		s.mu.Unlock()
		tk = s.steal()
		s.mu.Lock()
	}
	if tk == nil && len(s.queue) > 0 {
		tk = s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		s.releaseSlot()
	}
	if tk != nil {
		s.running++
	}
	return tk
}

// resolve readies a taken ticket to run here and returns the executor and
// index it runs at: the server's own executor for an index ticket (Admit
// range-checked it), the item's own at index 0 for a Resolve ticket,
// resolved on this, the executing, shard.
func (s *Server) resolve(tk *Ticket) (ex oracle.Executor, i int, err error) {
	if tk.Resolve == nil {
		return s.ex, tk.image, nil
	}
	ex, err = tk.Resolve(tk.Shard)
	return ex, 0, err
}

// selector is the worker's policy as the executor sees it: a sim.Policy
// decorator that times every Next — the paper's Table III selection
// overhead — and records the select span with the pick and the budget
// the ask saw, so the executor itself knows nothing of telemetry. It
// records around — never inside — the policy, so tracing cannot perturb
// scheduling.
type selector struct {
	sim.Policy
	mach      *machine
	selectSec float64 // real seconds inside Next for the current item
}

func (p *selector) Next(t *oracle.Tracker, c sim.Constraints) int {
	t0 := time.Now()
	m := p.Policy.Next(t, c)
	p.selectSec += time.Since(t0).Seconds()
	trace := p.mach.trace
	if trace == nil {
		return m
	}
	attrs := obs.SpanAttrs{RemainingMS: c.RemainingMS, AvailMemMB: c.AvailMemMB}
	if m < 0 && t.CandidateCount() > 0 {
		attrs.Note = "declined with models unexecuted"
	}
	trace.Annotate(trace.SpanBetween(obs.SpanSelect, 0, m, t0, time.Now()), attrs)
	return m
}

// flight is one model execution in progress on a machine.
type flight struct {
	model    int
	done     chan struct{} // receives when the execution ends; nil when it took no time
	wake     *wake         // the machine's reusable wake-up done belongs to; nil with done
	started  time.Time     // metrics stamp at launch (zero when disabled)
	launched time.Time     // trace stamp at launch (zero when tracing is off)
	ref      *obs.BatchRef // batched fan-in identity, &wake.ref (nil unbatched/untraced)
	queued   int           // lane occupancy at enqueue (read only when traced)
}

// machine is the real sim.Machine, one per worker: memory is the shared
// accountant's, executions sleep on the timer wheel or in a batch lane,
// and the reserve-wait, batch-hold and exec spans of the item in hand
// are recorded here. The schedule clock stays nominal (sim.Execute
// commits in nominal-finish order and the footprint is held from Start
// to Finish, not just for the sleep), so the headroom a launch phase
// observes is exactly what the virtual machine would compute and an
// uncontended item reproduces the virtual-time schedule bit for bit.
type machine struct {
	s      *Server
	trace  *obs.ItemTrace // the item in hand (nil when tracing is off)
	flying []flight
	wakes  []*wake // free wake-ups: as many as this machine's executions ever overlapped
}

// wake is a reusable wake-up for one execution at a time: the wheel
// runs fire at an unbatched execution's end, the batcher sends on ch at
// a batched one's, and Finish receives it. The channel, the callback
// and the traced batch's fan-in identity are built once, so an
// execution on a reused wake allocates nothing.
type wake struct {
	ch   chan struct{} // capacity 1: one signal per arm, one receive per Finish
	fire func()
	ref  obs.BatchRef // filled by the batcher before it signals ch (traced batched flights)
}

// takeWake returns a free wake-up, making one when every wake is armed.
func (mc *machine) takeWake() *wake {
	if n := len(mc.wakes); n > 0 {
		w := mc.wakes[n-1]
		mc.wakes = mc.wakes[:n-1]
		return w
	}
	w := &wake{ch: make(chan struct{}, 1)}
	w.fire = func() { w.ch <- struct{}{} }
	return w
}

// FreeMB is the accountant's live availability — or the whole budget
// when the batch owns the footprint. Such a machine reserves nothing, so
// live headroom is not its to claim: its batch waits in the grant line
// instead, and a decline never stalls. The schedule is then a function
// of (agent, item, budget) alone, the same on any worker count.
func (mc *machine) FreeMB() float64 {
	s := mc.s
	switch {
	case s.acct == nil:
		return math.Inf(1)
	case s.batchOwnsMem:
		return s.cfg.MemoryBudgetMB
	}
	return s.acct.available()
}

// Start reserves the model's footprint and starts its simulated
// execution: through the batching runtime when batching is on, as a
// plain timer on the wheel otherwise. The one difference between the two
// execution modes lives here. With batching on, a serially scheduled
// item lets the *batch* own its footprint — one grant per batch, the
// memory coalescing that buys throughput — so the machine reserves
// nothing; a parallel item's machine keeps each reservation until
// commit, as the virtual machine accounts memory, and the batch only
// shares the sleep.
func (mc *machine) Start(m int, mod *zoo.Model) {
	s, trace := mc.s, mc.trace
	f := flight{model: m, started: s.cfg.Metrics.execStart(m)}
	if s.acct != nil && !s.batchOwnsMem {
		// Another item may have claimed the observed headroom in the
		// meantime; reserve blocks until the footprint fits again, while
		// this machine may hold reservations of its own. That cannot
		// deadlock: a blocked reserve implies a later successful
		// reservation by another machine, so the globally last reserver
		// is never blocked, always drains its commits (which need no
		// reservation), and its releases wake the blocked one — a
		// selection always fits the budget minus its own holdings.
		t0 := trace.Stamp()
		s.acct.reserve(mod.MemMB)
		trace.SpanBetween(obs.SpanReserveWait, 0, m, t0, trace.Stamp())
	}
	f.launched = trace.Stamp()
	if s.batcher != nil {
		f.wake = mc.takeWake()
		f.done = f.wake.ch
		if trace != nil {
			f.wake.ref = obs.BatchRef{}
			f.ref, f.queued = &f.wake.ref, s.batcher.Queued(m)
		}
		s.batcher.Enqueue(m, s.batchOwnsMem, f.done, f.ref)
	} else if d := s.scaled(mod.TimeMS); d > 0 {
		f.wake = mc.takeWake()
		f.done = f.wake.ch
		s.wheel.AfterFunc(d, f.wake.fire)
	}
	mc.flying = append(mc.flying, f)
}

// Finish waits out model m's execution, records its spans — the worker
// owns the trace; sleeps never write — and releases its footprint. A
// batched flight splits into hold (launch → seal) and exec (seal → wake)
// from the BatchRef the batcher filled before signalling done.
func (mc *machine) Finish(m int, mod *zoo.Model) {
	s, trace := mc.s, mc.trace
	i := 0
	for mc.flying[i].model != m {
		i++
	}
	f := mc.flying[i]
	mc.flying = append(mc.flying[:i], mc.flying[i+1:]...)
	if f.done != nil {
		<-f.done
	}
	if f.ref != nil && f.ref.Batch != 0 {
		fanIn := obs.SpanAttrs{Batch: f.ref.Batch, BatchN: f.ref.N, Note: f.ref.Flush, Queued: f.queued}
		trace.Annotate(trace.SpanBetween(obs.SpanBatchHold, 0, m, f.launched, f.ref.Seal), fanIn)
		fanIn.Queued = 0
		trace.Annotate(trace.SpanBetween(obs.SpanExec, 0, m, f.ref.Seal, trace.Stamp()), fanIn)
	} else {
		trace.SpanBetween(obs.SpanExec, 0, m, f.launched, trace.Stamp())
	}
	if f.wake != nil { // after the spans: f.ref points into it
		mc.wakes = append(mc.wakes, f.wake)
	}
	if s.acct != nil && !s.batchOwnsMem {
		// Freed now (the zero instant): machines that reserve share their
		// server with no batch lane that asks for grants.
		s.acct.Release(mod.MemMB, time.Time{})
	}
	s.cfg.Metrics.execDone(m, f.started, s.cfg.TimeScale)
}

// Stalled reports whether the policy's decline may be transient memory
// pressure — some unexecuted model fits the remaining time and the whole
// budget, but not the availability the policy just saw — and if so waits
// for the availability to change. Otherwise the decline is final: the
// item is out of time, out of candidates, or the policy chose to stop,
// and waiting for a memory release could never change the answer. A
// machine whose batches own the footprint was shown the whole budget, so
// its decline is always final.
func (mc *machine) Stalled(t *oracle.Tracker, remainingMS, freeMB float64) bool {
	s := mc.s
	if s.acct == nil || s.batchOwnsMem {
		return false
	}
	blocked := false
	for m := range t.Unexecuted() {
		mod := s.ex.Model(m)
		if mod.TimeMS <= remainingMS+1e-9 &&
			mod.MemMB <= s.cfg.MemoryBudgetMB+1e-9 &&
			mod.MemMB > freeMB+1e-9 {
			blocked = true
			break
		}
	}
	if !blocked {
		return false
	}
	t0 := mc.trace.Stamp()
	if !s.acct.awaitMore(freeMB) {
		return false
	}
	mc.trace.Annotate(mc.trace.SpanBetween(obs.SpanReserveWait, 0, -1, t0, mc.trace.Stamp()),
		obs.SpanAttrs{RemainingMS: remainingMS, AvailMemMB: freeMB, Note: "stall"})
	return true
}

// scaled converts nominal model milliseconds to the real duration slept.
func (s *Server) scaled(ms float64) time.Duration {
	return time.Duration(ms * s.cfg.TimeScale * float64(time.Millisecond))
}

// finish commits and counts one completed item, then resolves its
// ticket. The schedule length charged to the worker — and to
// utilization — is the makespan: the summed model time of a serial
// schedule, less when models overlapped. The commit of a resolved item
// whose executor commits (the item's explicit lifetime boundary) happens
// first: the outputs are already captured by value, so its owner may
// evict the item's memo the moment the commit is journaled, before any
// reader wakes.
func (s *Server) finish(tk *Ticket, ex oracle.Executor, res sim.Result, selectSec float64, trace *obs.ItemTrace) {
	t0 := trace.Stamp()
	if c, ok := ex.(committer); ok && tk.Resolve != nil {
		// The sticky write error surfaces on the admission path; a worker
		// completing an item has nowhere to return it.
		_ = c.Commit(res.Executed, res.MakespanMS)
	}
	trace.Annotate(trace.SpanBetween(obs.SpanCommit, 0, -1, t0, trace.Stamp()),
		obs.SpanAttrs{RemainingMS: s.cfg.Limits().DeadlineMS - res.MakespanMS})
	tk.res = ItemResult{
		Image:      tk.image,
		Tag:        tk.tag,
		Shard:      tk.Shard,
		Executed:   res.Executed,
		Outputs:    res.Outputs,
		ScheduleMS: res.MakespanMS,
		Recall:     res.Recall,
		HasRecall:  res.HasRecall,
		Arrival:    tk.arrival,
		Start:      tk.dequeued,
		Finish:     time.Now(),
		SelectSec:  selectSec,
	}
	rec := tk.res.Record(tk.arrival, s.cfg.TimeScale) // StartSec is the queue wait, FinishSec the latency
	s.cfg.Metrics.itemDone(rec.StartSec, rec.FinishSec, selectSec)
	s.cfg.Tracer.End(trace)
	s.mu.Lock()
	s.completed++
	s.running--
	s.mu.Unlock()
	if s.onFinish != nil {
		s.onFinish(tk.res)
	}
	close(tk.done)
}

// Counters is a server's running totals.
type Counters struct {
	Completed int64       // labeled items
	Rejected  int64       // submits rejected with ErrQueueFull
	Failed    int64       // taken tickets whose resolution failed
	PeakMemMB float64     // maximum simultaneous reservation observed
	MemWaits  int64       // reservations that blocked on the budget
	Batching  batch.Stats // zero when batching is not configured
}

// Counters reads the server's totals.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	c := Counters{Completed: s.completed, Rejected: s.rejected, Failed: s.failed}
	s.mu.Unlock()
	if s.acct != nil {
		c.PeakMemMB = s.acct.peak()
		c.MemWaits = s.acct.waitCount()
	}
	if s.batcher != nil {
		c.Batching = s.batcher.Stats()
	}
	return c
}
