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
// Admission control is explicit: Submit rejects with ErrQueueFull when
// the bounded queue is saturated, SubmitWait blocks until space frees,
// and New rejects configurations that could never make progress (no
// workers, a memory budget below the smallest model).
//
// With Config.BatchSize the server coalesces demand across items:
// workers hand their executions to a cross-item batching runtime
// (internal/batch) that collects same-model requests from the whole
// pool into one batched execution with sub-linear cost, reserving the
// model's footprint once per batch instead of once per request — the
// memory coalescing that buys throughput on hot-model, memory-bound
// traces. Batching is pure execution-layer mechanics: policies never
// see it, and deadline accounting stays nominal (a batched execution
// still charges the item TimeMS), so schedules — and recall — are
// unchanged by batching; with BatchSize 1 the runtime reproduces the
// unbatched reserve → sleep → release sequence exactly.
//
// Model execution is simulated by sleeping the model's nominal duration
// scaled by Config.TimeScale, so tests and benchmarks can run the real
// concurrent machinery thousands of times faster than production pacing
// while keeping every scheduling decision, reservation, and statistic
// identical. All sleeps share one timer wheel (internal/vtime) instead
// of parking a goroutine per execution in the runtime timer heap. All
// reported statistics are on the simulated clock (wall-clock divided by
// TimeScale), making them directly comparable to the virtual-time sim's
// output — both reduce through service.Summarize.
// One caveat: the scheduler's real CPU work (the agent's Q-network
// forward passes — the paper's Table III selection overhead) is not
// scaled, so very small TimeScale values magnify it relative to model
// time and inflate the simulated-clock latencies; RunStats.AvgSelectSec
// quantifies that overhead per item.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// Config parameterizes a server. The embedded service.Config supplies
// Workers, DeadlineSec, MemoryBudgetMB and ItemParallel to the server
// itself; ArrivalRateHz, Items and Seed describe an arrival trace when
// the caller replays one (the ams layer's Serve does, sharing the shape
// with the virtual-time sim).
type Config struct {
	service.Config

	// QueueCap bounds the admission queue (default 2*Workers). Together
	// with the worker pool it caps in-flight items at QueueCap+Workers.
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
	// is on. Only meaningful with BatchSize > 1.
	BatchHoldMS float64

	// TimeScale is the real seconds slept per simulated second of model
	// time (default 1.0, production pacing). Tests use small values to
	// exercise the full concurrent machinery quickly.
	TimeScale float64

	// StatsWindow is how many completed-item records the server retains
	// for Stats (default 65536), bounding memory on a long-running
	// server: once exceeded, Stats summarizes the most recent window.
	// Trace replayers raise it to cover their whole trace.
	StatsWindow int

	// Corpus, when non-nil, makes the server drive a durable item
	// corpus's lifecycle: every admission registers an in-flight
	// reference (BeginItem), every completed schedule journals a commit
	// (CommitItem) before the result is delivered, and failed admissions
	// release their reference (AbortItem). The executor handed to New is
	// then typically the corpus's own Source, so ingested items are
	// journaled, memoized to disk, and evicted once committed.
	Corpus Corpus

	// Epoch, when non-zero, is the wall-clock origin of the server's
	// simulated timeline (arrival/finish seconds in its records). Shards
	// of one logical server share an epoch so their records merge into
	// one coherent summary; zero means "now".
	Epoch time.Time

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

// Corpus is the narrow contract a durable ingestion corpus exposes to
// the server (implemented by internal/corpus's Source). The server calls
// BeginItem when an item is admitted, CommitItem when its schedule
// completes — the item's explicit lifetime boundary: after commit the
// corpus may evict the item's memoized outputs, which is safe because
// every completion's outputs are captured into its ItemResult first —
// and AbortItem when an admission fails after BeginItem.
type Corpus interface {
	BeginItem(item int)
	CommitItem(item int, executed []int, scheduleMS float64)
	AbortItem(item int)
}

// defaultStatsWindow bounds retained per-item records (~40 B each).
const defaultStatsWindow = 1 << 16

// defaultBatchHoldMS is the flush hold applied when batching is enabled
// without an explicit Config.BatchHoldMS: long enough for concurrent
// workers to pile demand into a hot model's lane, short next to any
// realistic per-item deadline.
const defaultBatchHoldMS = 10.0

// ItemResult is the outcome of one labeled item. It is self-contained:
// Outputs carries the executed models' results by value, captured before
// the commit is journaled, so reading a result never touches the
// executor — the item's memo may already be evicted by then.
type ItemResult struct {
	Image      int          // item index in the server's executor
	Tag        string       // caller-supplied identifier, echoed verbatim
	Executed   []int        // model IDs in execution order
	Outputs    []zoo.Output // the executed models' outputs, parallel to Executed
	ScheduleMS float64      // summed nominal model time; the makespan in ItemParallel mode
	Recall     float64
	HasRecall  bool    // whether the item's ground truth (and so Recall) is known
	WaitSec    float64 // queue wait on the simulated clock
	LatencySec float64 // submit -> completion on the simulated clock
}

// Ticket tracks one submitted item to completion. It is the serving
// path's only ticket: a shard router creates it where the caller's submit
// enters, queues it, and hands the same object to the executing server
// (AdmitWait), so arrival — and with it WaitSec, LatencySec, the
// queue_wait span and the SLOs — covers router-pending and resolution time.
type Ticket struct {
	// Home, Shard and Stolen are the router's annotation, written before
	// admission and read by the worker's trace and after Done: where
	// placement put the item, where it ran, and whether the two differ.
	// Zero on a bare server.
	Home   int
	Shard  int
	Stolen bool

	image    int
	tag      string
	arrival  time.Time
	dequeued time.Time // when a worker took the item off the queue
	done     chan struct{}
	res      ItemResult
	err      error // why the item never ran (Fail)
}

// NewTicket stamps an item's arrival. The ticket resolves exactly once:
// through the server that admits it, or through Fail.
func NewTicket(tag string) *Ticket {
	return &Ticket{tag: tag, arrival: time.Now(), done: make(chan struct{})}
}

// Done is closed when the item has been labeled or has failed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket resolves and returns its result,
// meaningful when Err is nil. The result is committed before Done
// closes: its Outputs are captured by value, so Wait never reads the
// executor and is unaffected by a corpus evicting the item's memo after
// commit.
func (t *Ticket) Wait() ItemResult {
	<-t.done
	return t.res
}

// Err blocks like Wait and reports why the item never ran; nil for every
// ticket a server's own Submit or SubmitWait returned.
func (t *Ticket) Err() error {
	<-t.done
	return t.err
}

// Fail resolves a ticket no server admitted: a router's dispatch-time
// resolution failed, or the executing server had closed.
func (t *Ticket) Fail(err error) {
	t.err = err
	close(t.done)
}

// Server is a running labeling server. Create one with New, feed it with
// Submit/SubmitWait, and stop it with Close, which drains the queue.
type Server struct {
	ex      oracle.Executor
	cfg     Config
	factory service.PolicyFactory
	acct    *accountant    // nil when no memory budget is configured
	wheel   *vtime.Wheel   // all simulated executions sleep on it
	batcher *batch.Batcher // nil when batching is not configured
	// batchOwnsMem: serial schedules on a batched, budgeted server leave
	// the footprint reservation to the batch (see machine.Start).
	batchOwnsMem bool
	queue        chan *Ticket
	stop         chan struct{} // closed by Close to wake blocked SubmitWait senders
	workersDone  chan struct{} // closed by Close after the pool drains
	start        time.Time
	wg           sync.WaitGroup // workers
	senders      sync.WaitGroup // in-flight admissions; drained before queue close
	onFinish     func()         // completion hook (nil on a bare server)

	mu        sync.Mutex // guards closed, records, counters
	closed    bool
	records   []service.Record // ring of the most recent StatsWindow completions
	recHead   int              // next overwrite position once the ring is full
	completed int64
	rejected  int64

	// Results subscription (nil until Results is called). Workers append
	// under mu and signal; the pump goroutine forwards to the subscriber
	// channel, so a slow (or abandoned) consumer never blocks a worker
	// or Close. The buffer of undelivered results is bounded at
	// StatsWindow entries — beyond that the oldest are dropped and
	// counted, so an abandoned subscription cannot grow memory for the
	// server's lifetime.
	resCh      chan ItemResult
	resSig     chan struct{} // capacity 1: "new results buffered"
	resBuf     []ItemResult
	resDropped int64
}

// New validates the configuration and starts the worker pool.
func New(ex oracle.Executor, factory service.PolicyFactory, cfg Config) (*Server, error) {
	if ex == nil || factory == nil {
		return nil, errors.New("serve: nil executor or policy factory")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("serve: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.DeadlineSec <= 0 {
		return nil, fmt.Errorf("serve: need a positive per-item deadline, got %v", cfg.DeadlineSec)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("serve: negative time scale %v", cfg.TimeScale)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 2 * cfg.Workers
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("serve: negative queue capacity %d", cfg.QueueCap)
	}
	if cfg.StatsWindow < 0 {
		return nil, fmt.Errorf("serve: negative stats window %d", cfg.StatsWindow)
	}
	if cfg.StatsWindow == 0 {
		cfg.StatsWindow = defaultStatsWindow
	}
	var acct *accountant
	if cfg.MemoryBudgetMB < 0 {
		return nil, fmt.Errorf("serve: negative memory budget %v MB", cfg.MemoryBudgetMB)
	}
	if cfg.ItemParallel && cfg.MemoryBudgetMB <= 0 {
		return nil, errors.New("serve: per-item parallel execution requires a memory budget (it bounds the parallelism)")
	}
	if cfg.MemoryBudgetMB > 0 {
		smallest := ex.Model(0).MemMB
		for m := 1; m < ex.NumModels(); m++ {
			if mb := ex.Model(m).MemMB; mb < smallest {
				smallest = mb
			}
		}
		if cfg.MemoryBudgetMB < smallest {
			return nil, fmt.Errorf("serve: memory budget %v MB below the smallest model (%v MB); no model could ever run",
				cfg.MemoryBudgetMB, smallest)
		}
		acct = newAccountant(cfg.MemoryBudgetMB)
		if cfg.Metrics != nil {
			acct.waitHist = cfg.Metrics.ReserveWait
		}
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("serve: negative batch size %d", cfg.BatchSize)
	}
	if cfg.BatchHoldMS < 0 {
		return nil, fmt.Errorf("serve: negative batch hold %v ms", cfg.BatchHoldMS)
	}
	if cfg.BatchSize > 0 && cfg.BatchHoldMS == 0 {
		cfg.BatchHoldMS = defaultBatchHoldMS
	}
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	s := &Server{
		ex:          ex,
		cfg:         cfg,
		factory:     factory,
		acct:        acct,
		wheel:       vtime.NewWheel(),
		queue:       make(chan *Ticket, cfg.QueueCap),
		stop:        make(chan struct{}),
		workersDone: make(chan struct{}),
		start:       start,
	}
	if cfg.BatchSize > 0 {
		s.batchOwnsMem = acct != nil && !cfg.ItemParallel
		models := make([]*zoo.Model, ex.NumModels())
		for m := range models {
			models[m] = ex.Model(m)
		}
		var mem batch.Memory
		if acct != nil {
			mem = acctMemory{acct}
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

// Submit admits one item without blocking. The tag is an opaque caller
// identifier echoed in the item's result. Submit returns ErrQueueFull
// when the bounded queue is saturated (the caller's backpressure signal)
// and ErrClosed after Close.
func (s *Server) Submit(item int, tag string) (*Ticket, error) {
	tk := NewTicket(tag)
	if err := s.begin(tk, item); err != nil {
		return nil, err
	}
	defer s.senders.Done()
	select {
	case s.queue <- tk:
		s.cfg.Metrics.admitted()
		return tk, nil
	default:
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		s.cfg.Metrics.shed()
		s.abortItem(item)
		return nil, ErrQueueFull
	}
}

// SubmitWait admits one item, blocking while the queue is full until
// space frees, the context is cancelled, or the server closes.
func (s *Server) SubmitWait(ctx context.Context, item int, tag string) (*Ticket, error) {
	tk := NewTicket(tag)
	if err := s.AdmitWait(ctx, tk, item); err != nil {
		return nil, err
	}
	return tk, nil
}

// AdmitWait is SubmitWait for a ticket that already exists: the one a
// shard router created at the caller's submit. On an error the ticket is
// unresolved and the caller's to Fail.
func (s *Server) AdmitWait(ctx context.Context, tk *Ticket, item int) error {
	if err := s.begin(tk, item); err != nil {
		return err
	}
	defer s.senders.Done()
	var err error
	select {
	case s.queue <- tk:
		s.cfg.Metrics.admitted()
		return nil
	case <-s.stop:
		err = ErrClosed
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.abortItem(item)
	return err
}

// begin opens an admission. It registers the in-flight schedule with the
// corpus before the item can reach a worker, so a commit can never
// observe a missing reference (a failed admission releases it again),
// and enters the senders group before the caller touches the queue:
// Close drains the group before closing the channel, so a send can never
// hit a closed queue. The caller owes senders.Done when begin succeeds.
func (s *Server) begin(tk *Ticket, item int) error {
	if item < 0 || item >= s.ex.NumItems() {
		return fmt.Errorf("serve: item %d out of range [0,%d)", item, s.ex.NumItems())
	}
	tk.image = item
	if s.cfg.Corpus != nil {
		s.cfg.Corpus.BeginItem(item)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.abortItem(item)
		return ErrClosed
	}
	s.senders.Add(1)
	s.mu.Unlock()
	return nil
}

// abortItem releases a BeginItem'd corpus reference after a failed
// admission.
func (s *Server) abortItem(item int) {
	if s.cfg.Corpus != nil {
		s.cfg.Corpus.AbortItem(item)
	}
}

// OnFinish installs the completion hook, before the first admission: fn
// runs on the finishing worker for every labeled item, after its result
// is recorded and before its ticket's Done closes. It is how a shard
// router learns of completions without a goroutine parked per ticket.
func (s *Server) OnFinish(fn func()) { s.onFinish = fn }

// Close stops admission, drains the queue, and waits for in-flight items
// to complete. It is safe to call once; later calls return ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)    // wake SubmitWait senders blocked on a full queue
	s.senders.Wait() // after which no send can touch the queue
	close(s.queue)   // let workers drain and exit
	s.wg.Wait()
	// The pool has drained: no execution sleeps or hold timers can be
	// armed anymore, so the wheel's dispatcher can go.
	s.wheel.Stop()
	close(s.workersDone) // tell the results pump to flush and finish
	return nil
}

// Results subscribes to completed items: every item finished after the
// call is delivered, in completion order, on the returned channel, which
// closes once the server has closed and all buffered results are
// consumed. Repeated calls return the same channel. Results lets a
// caller consume a stream of completions without holding tickets —
// submit-and-forget producers on one side, one consumer loop on the
// other. Items completed before the first Results call are not
// replayed; subscribe before submitting. Workers never block on the
// subscriber: results are buffered internally (at most StatsWindow
// undelivered entries — beyond that the oldest are dropped and counted
// in RunStats.ResultsDropped) and forwarded by a pump goroutine, so an
// abandoned subscription cannot stall labeling, deadlock Close, or grow
// memory unboundedly.
func (s *Server) Results() <-chan ItemResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resCh == nil {
		s.resCh = make(chan ItemResult)
		s.resSig = make(chan struct{}, 1)
		go s.pumpResults()
	}
	return s.resCh
}

// pumpResults forwards buffered completions one at a time — everything
// not yet handed to the subscriber stays in resBuf, so finish's
// shedding bound covers all undelivered results (plus at most the one
// entry in flight) — until the workers have drained, then flushes what
// remains and closes.
func (s *Server) pumpResults() {
	for {
		if s.forwardOne() {
			continue
		}
		select {
		case <-s.resSig:
		case <-s.workersDone:
			// Workers are gone: drain anything racing in, then close.
			for s.forwardOne() {
			}
			close(s.resCh)
			return
		}
	}
}

// forwardOne pops one buffered result and delivers it (blocking on the
// subscriber), reporting whether there was one.
func (s *Server) forwardOne() bool {
	s.mu.Lock()
	if len(s.resBuf) == 0 {
		s.mu.Unlock()
		return false
	}
	r := s.resBuf[0]
	s.resBuf = s.resBuf[1:]
	s.mu.Unlock()
	s.resCh <- r
	return true
}

// worker owns one policy instance (and, through the factory, one agent
// fork) and labels queued items until the queue closes: each item
// is one run of the shared executor, sim.Execute, on this worker's
// machine, under the configured limits.
func (s *Server) worker(w int) {
	defer s.wg.Done()
	mach := &machine{s: s}
	sel := &selector{Policy: s.factory(w), mach: mach}
	mach.policy = sel
	lim := s.cfg.Limits()
	for tk := range s.queue {
		tk.dequeued = time.Now()
		trace := s.cfg.Tracer.Begin(tk.image, tk.tag)
		trace.SetShards(tk.Home, tk.Shard)
		root := trace.Root(tk.arrival)
		trace.SpanBetween(obs.SpanQueueWait, root, -1, tk.arrival, tk.dequeued)
		mach.trace, sel.selectSec = trace, 0
		res := sim.Execute(mach, s.ex, tk.image, sel, lim)
		s.observeQuality(sel.Policy, res)
		s.finish(tk, res, sel.selectSec, trace)
	}
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
	p.selectSec += obs.SinceSeconds(t0)
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

// acctMemory adapts the shared accountant to the batch.Memory contract
// so sealed batches can hold one footprint reservation per batch.
type acctMemory struct{ a *accountant }

func (m acctMemory) Reserve(mb float64) bool { return m.a.reserve(mb) }
func (m acctMemory) Release(mb float64)      { m.a.release(mb) }

// residualValuer is implemented by the predictor-backed policies
// (internal/sched): the agent's estimate of the value still available
// for an item given its executed-set state. Used only for the quality
// proxy metric — reading a prediction never alters scheduling state, so
// bit-identity holds.
type residualValuer interface {
	ResidualValue(tr *oracle.Tracker) float64
}

// observeQuality records the ground-truth-free quality proxy on
// ingested traffic (items with no ground truth, hence no recall): the
// valuable-label confidence mass the schedule banked against the
// agent's predicted residual value at schedule end. Runs only when
// telemetry is enabled.
func (s *Server) observeQuality(policy sim.Policy, res sim.Result) {
	if s.cfg.Metrics == nil || res.HasRecall {
		return
	}
	mass := 0.0
	for _, out := range res.Outputs {
		mass += out.Value(zoo.ValuableThreshold)
	}
	residual := 0.0
	if rv, ok := policy.(residualValuer); ok {
		residual = rv.ResidualValue(res.State)
	}
	s.cfg.Metrics.quality(mass, residual)
}

// flight is one model execution in progress on a machine.
type flight struct {
	model    int
	done     chan struct{} // closed when the execution ends; nil when it took no time
	started  time.Time     // metrics stamp at launch (zero when disabled)
	launched time.Time     // trace stamp at launch (zero when tracing is off)
	ref      *obs.BatchRef // batched fan-in identity (nil unbatched/untraced)
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
	policy sim.Policy     // named when a reservation can never be granted
	trace  *obs.ItemTrace // the item in hand (nil when tracing is off)
	flying []flight
}

// FreeMB is the accountant's live availability.
func (mc *machine) FreeMB() float64 {
	if mc.s.acct == nil {
		return math.Inf(1)
	}
	return mc.s.acct.available()
}

// Start reserves the model's footprint and starts its simulated
// execution: through the batching runtime when batching is on, as a
// plain timer on the wheel otherwise. The one difference between the two
// execution modes lives here. With batching on, a serially scheduled
// item lets the *batch* own its reservation — one per batch, the memory
// coalescing that buys throughput — so the machine reserves nothing; a
// parallel item's machine keeps each reservation until commit, as the
// virtual machine accounts memory, and the batch only shares the sleep.
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
		rw := trace.StartSpan(obs.SpanReserveWait, 0, m)
		s.mustReserve(mc.policy, m, mod)
		trace.EndSpan(rw)
	}
	f.launched = trace.Stamp()
	if s.batcher != nil {
		if trace != nil {
			f.ref, f.queued = &obs.BatchRef{}, s.batcher.Queued(m)
		}
		f.done = make(chan struct{})
		s.batcher.Enqueue(m, s.batchOwnsMem, f.done, f.ref)
	} else if d := s.scaled(mod.TimeMS); d > 0 {
		done := make(chan struct{})
		s.wheel.AfterFunc(d, func() { close(done) })
		f.done = done
	}
	mc.flying = append(mc.flying, f)
}

// Finish waits out model m's execution, records its spans — the worker
// owns the trace; sleeps never write — and releases its footprint. A
// batched flight splits into hold (launch → seal) and exec (seal → wake)
// from the BatchRef the batcher filled before closing done.
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
	if s.acct != nil && !s.batchOwnsMem {
		s.acct.release(mod.MemMB)
	}
	s.cfg.Metrics.execDone(m, f.started, s.cfg.TimeScale)
}

// Stalled reports whether the policy's decline may be transient memory
// pressure — some unexecuted model fits the remaining time and the whole
// budget, but not the availability the policy just saw — and if so waits
// for the availability to change. Otherwise the decline is final: the
// item is out of time, out of candidates, or the policy chose to stop,
// and waiting for a memory release could never change the answer.
func (mc *machine) Stalled(t *oracle.Tracker, remainingMS, freeMB float64) bool {
	s := mc.s
	if s.acct == nil {
		return false
	}
	blocked := false
	for _, m := range t.Unexecuted() {
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

// mustReserve claims a model's footprint, panicking when the accountant
// reports it could never fit the whole budget. A selection that passed
// the executor's headroom check always fits (the observed availability
// never exceeds the budget), so a false return here means the policy's
// selection and the constraints it was handed disagree — a contract
// violation, not a transient stall, and silently ignoring it would let
// the execution proceed without any reservation at all.
func (s *Server) mustReserve(policy sim.Policy, m int, mod *zoo.Model) {
	if !s.acct.reserve(mod.MemMB) {
		panic(fmt.Sprintf("serve: policy %s selected model %d whose footprint (%v MB) exceeds the whole memory budget (%v MB)",
			policy.Name(), m, mod.MemMB, s.cfg.MemoryBudgetMB))
	}
}

// scaled converts nominal model milliseconds to the real duration slept.
func (s *Server) scaled(ms float64) time.Duration {
	return time.Duration(ms * s.cfg.TimeScale * float64(time.Millisecond))
}

// finish commits and records one completed item, then resolves its
// ticket. The schedule length charged to the worker — and to
// utilization — is the makespan: the summed model time of a serial
// schedule, less when models overlapped. The corpus commit (the item's
// explicit lifetime boundary) happens first: the outputs are already
// captured by value, so the corpus may evict the item's memo the moment
// the commit is journaled, before any reader wakes.
func (s *Server) finish(tk *Ticket, res sim.Result, selectSec float64, trace *obs.ItemTrace) {
	commit := trace.StartSpan(obs.SpanCommit, 0, -1)
	trace.Annotate(commit, obs.SpanAttrs{RemainingMS: s.cfg.Limits().DeadlineMS - res.MakespanMS})
	if s.cfg.Corpus != nil {
		s.cfg.Corpus.CommitItem(tk.image, res.Executed, res.MakespanMS)
	}
	trace.EndSpan(commit)
	finishWall := time.Now()

	// Record on the simulated clock so Stats is comparable to the sim.
	scale := s.cfg.TimeScale
	rec := service.Record{
		ArrivalSec: tk.arrival.Sub(s.start).Seconds() / scale,
		StartSec:   tk.dequeued.Sub(s.start).Seconds() / scale,
		FinishSec:  finishWall.Sub(s.start).Seconds() / scale,
		BusySec:    res.MakespanMS / 1000,
		Recall:     res.Recall,
		HasRecall:  res.HasRecall,
		SelectSec:  selectSec, // real seconds, deliberately unscaled
	}
	tk.res = ItemResult{
		Image:      tk.image,
		Tag:        tk.tag,
		Executed:   res.Executed,
		Outputs:    res.Outputs,
		ScheduleMS: res.MakespanMS,
		Recall:     res.Recall,
		HasRecall:  res.HasRecall,
		WaitSec:    rec.StartSec - rec.ArrivalSec,
		LatencySec: rec.FinishSec - rec.ArrivalSec,
	}
	// Telemetry reads the very record ServeStats will summarize — one
	// source of truth, so the exposition can never disagree with Stats.
	s.cfg.Metrics.itemDone(tk.res.WaitSec, tk.res.LatencySec, selectSec)
	s.cfg.Tracer.End(trace)
	s.mu.Lock()
	s.completed++
	if len(s.records) < s.cfg.StatsWindow {
		s.records = append(s.records, rec)
	} else {
		// Ring: overwrite the oldest record so a long-running server's
		// footprint stays bounded.
		s.records[s.recHead] = rec
		s.recHead = (s.recHead + 1) % s.cfg.StatsWindow
	}
	notify := s.resSig != nil
	if notify {
		if len(s.resBuf) >= s.cfg.StatsWindow {
			// The consumer is at least a full stats window behind: treat
			// the subscription as abandoned and shed the oldest results
			// rather than retaining every completion forever.
			drop := len(s.resBuf) - s.cfg.StatsWindow + 1
			s.resBuf = append(s.resBuf[:0], s.resBuf[drop:]...)
			s.resDropped += int64(drop)
		}
		s.resBuf = append(s.resBuf, tk.res)
	}
	s.mu.Unlock()
	if notify {
		select {
		case s.resSig <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	if s.onFinish != nil {
		s.onFinish()
	}
	close(tk.done)
}

// RunStats extends the shared Stats with the server's concurrency
// counters.
type RunStats struct {
	service.Stats
	Completed      int64       // total completions (Stats.Items caps at StatsWindow)
	PeakMemMB      float64     // maximum simultaneous reservation observed
	MemWaits       int64       // reservations that blocked on the budget
	Rejected       int64       // submits rejected with ErrQueueFull
	ResultsDropped int64       // Results-stream entries shed behind a lagging consumer
	Batching       batch.Stats // zero when batching is not configured
}

// Stats summarizes the most recent StatsWindow completed items through
// the same service.Summarize reduction the virtual-time sim uses.
func (s *Server) Stats() RunStats {
	s.mu.Lock()
	records := append([]service.Record(nil), s.records...)
	completed := s.completed
	rejected := s.rejected
	resDropped := s.resDropped
	s.mu.Unlock()
	rs := RunStats{
		Stats:          service.SummarizeWindow(records, s.cfg.Workers, completed),
		Completed:      completed,
		Rejected:       rejected,
		ResultsDropped: resDropped,
	}
	if s.acct != nil {
		rs.PeakMemMB = s.acct.peak()
		rs.MemWaits = s.acct.waitCount()
	}
	if s.batcher != nil {
		rs.Batching = s.batcher.Stats()
	}
	return rs
}

// Records returns a copy of the retained per-item completion records —
// the raw material a shard router merges across servers (with a shared
// Config.Epoch) before one Summarize reduction.
func (s *Server) Records() []service.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]service.Record(nil), s.records...)
}
