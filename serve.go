package ams

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ams/internal/corpus"
	"ams/internal/labels"
	"ams/internal/obs"
	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/serve"
	"ams/internal/service"
	"ams/internal/shard"
	"ams/internal/sim"
	"ams/internal/vtime"
)

// Admission errors surfaced by Server. ErrQueueFull is the backpressure
// signal of the bounded queue; ErrServerClosed follows Close.
var (
	ErrQueueFull    = serve.ErrQueueFull
	ErrServerClosed = serve.ErrClosed
)

// ServeConfig parameterizes a labeling server.
type ServeConfig struct {
	// Workers is the number of concurrent labeling workers. Each worker
	// owns one scheduling policy over its own fork of the agent; the
	// frozen network behind the forks is shared.
	Workers int
	// Policy selects the per-worker scheduling policy; the zero value
	// means PolicyAlgorithm1, the server's historical default. The policy
	// picks the schedule's shape, as in LabelWith: PolicyAlgorithm2
	// (which requires MemoryGB) runs in per-item parallel mode, one
	// item's models concurrently across the pool under the shared
	// accountant (sim.RunParallel semantics); every other policy runs
	// one model at a time, and MemoryGB only bounds which models fit.
	Policy Policy
	// DeadlineSec is the per-item scheduling budget, as in Label.
	DeadlineSec float64
	// MemoryGB, when positive, is the GPU memory budget shared by ALL
	// workers: Algorithm 2's joint constraint enforced globally, so the
	// sum of in-flight model footprints across the pool never exceeds
	// it. Workers block when the budget is saturated.
	MemoryGB float64
	// QueueCap bounds the admission queues (default 2*Workers per
	// shard); Submit rejects with ErrQueueFull when the item's home queue
	// is saturated. It divides evenly (at least 1 per shard) into each
	// shard's one queue, so a shard holds at most its share queued plus
	// one item per worker.
	QueueCap int
	// BatchSize, when positive, turns on cross-item dynamic batching:
	// same-model demand from the whole worker pool coalesces into
	// batched executions of at most BatchSize requests, each costing a
	// fixed launch overhead plus a per-item marginal instead of the full
	// model time per item — and, under a memory budget, reserving the
	// model's footprint once per batch instead of once per request.
	// Deadlines charge the nominal model time, so without a memory budget
	// schedules (and recall) are unchanged. With one, a serial policy is
	// shown the whole budget (the batch, not the worker, waits for
	// memory), so each item's schedule is what a one-worker server would
	// give it. One runs every request alone, reproducing unbatched
	// execution exactly on one worker; zero disables batching.
	BatchSize int
	// BatchHoldMS bounds, on the simulated clock, how long a lone
	// request waits in its model's lane for batch-mates before flushing.
	// Zero uses the server's default (10 ms) when batching is on. It
	// applies only where no batch owns a footprint (no MemoryGB, or
	// PolicyAlgorithm2): under a budget a serial lane seals the moment
	// the memory accountant grants its batch, with no timer.
	BatchHoldMS float64
	// PredictorCache, when set, shares one bounded Q-prediction cache
	// across all workers and items: every worker reads the same frozen
	// weights, so any worker's forward pass for a labeling state answers
	// that state everywhere. ServeStats reports its hit rate.
	PredictorCache bool
	// TimeScale is the real seconds slept per simulated second of model
	// execution (default 1.0; at least 1e-9, a nanosecond per simulated
	// second). Small values run the full concurrent machinery at test
	// speed.
	TimeScale float64
	// StatsWindow is how many completed items Stats retains (default
	// 65536; negative is refused), server-wide across all shards: a
	// long-running server summarizes only its most recent window, while
	// ServeStats.Completed keeps the total count. It is also the exact
	// bound on results not yet delivered to a Results subscriber: past
	// it, the oldest is dropped.
	StatsWindow int
	// Corpus, when non-nil, makes ingestion durable and bounded: every
	// external item the server admits is journaled (scene, each
	// memoized model output, and the completed schedule), evicted from
	// memory once committed and unreferenced, and recoverable after a
	// crash via OpenCorpus + ReplayCorpus. Creating the server reclaims
	// the memos of items already committed in the corpus's journal —
	// replay first (ReplayCorpus) if those results are still wanted.
	Corpus *Corpus
	// Shards splits the server into that many independent shards — each
	// one a worker pool with its own memory accountant (MemoryGB and
	// Workers divide across them) and, with a corpus, its own journal
	// segment (the corpus must have been opened with OpenCorpusDir at the
	// same segment count) — fronted by a router that places items per
	// ShardPlacement. Zero, the default, means one shard: the
	// single-budget server, routed like any other.
	Shards int
	// ShardPlacement picks the router's placement policy: "hash"
	// (default; consistent hash of the item identity, stable across
	// restarts), "least" (fewest queued+in-flight), or "affinity"
	// (items whose valuable labels map to a shard's hot models land
	// together, keeping those models' working set stable per shard).
	ShardPlacement string
	// ShardSteal lets a worker whose shard's queue is empty steal queued
	// items from its most loaded sibling.
	ShardSteal bool
	// Telemetry turns on the server's live metric registry and item
	// tracer: per-stage latency histograms, per-model execution histograms,
	// per-shard live gauges, and a bounded ring of per-item span trees
	// (each decision's deadline and memory budget on the span that timed
	// it), snapshotted through ServeStats.Telemetry and Traces.
	// Instruments only observe — schedules are bit-identical with
	// telemetry on or off — and when this is unset (and MetricsAddr is
	// empty) the whole path is inert: no registry exists and the hot path
	// allocates nothing.
	Telemetry bool
	// MetricsAddr, when non-empty (host:port; ":0" picks a free port),
	// additionally serves the telemetry over HTTP: /metrics (Prometheus
	// text), /statusz (JSON status + metric snapshot), /tracez (recent
	// decision traces; ?format=chrome exports Perfetto-loadable JSON),
	// and /debug/pprof. Implies Telemetry. The listener shuts down with
	// Close. MetricsAddr reports the bound address.
	MetricsAddr string
	// TraceCapacity sets how many completed item traces the tracer
	// retains in its ring (default 256; negative is refused). Ring
	// evictions are surfaced as ams_trace_evicted_total.
	TraceCapacity int
	// SLOs lists latency objectives the server accounts every completed
	// item against, each spec "p99<250ms" or "name:p95<1s" (quantile is
	// the good-fraction target, the duration is the threshold on the
	// simulated clock). A "deadline" objective — p99 within DeadlineSec —
	// is always present when telemetry is on. Burn rates over two fixed
	// windows, 300 s and 3600 s of the server's virtual clock, export as
	// ams_slo_* series. Implies Telemetry.
	SLOs []string
	// FlightDir, when non-empty, arms the anomaly flight recorder: the
	// server polls trigger conditions (shed-rate spike, deadline-burn,
	// steal storm, reserve-wait stall) and on firing atomically writes a
	// timestamped JSON bundle — the recent span-trace ring plus the full
	// metric snapshot, the moments *before* the anomaly — into this
	// directory. Trigger rates and the 5 s cooldown count seconds of the
	// same virtual clock as the SLO windows. Implies Telemetry.
	FlightDir string
}

// ServeTrace describes a Poisson arrival trace for Server.Replay and
// SimulateServe.
type ServeTrace struct {
	ArrivalRateHz float64 // mean arrivals per second
	Items         int     // stream length
	Seed          uint64
	// OpenLoop submits without blocking: an item arriving into a
	// saturated queue is shed — counted in ServeStats.Rejected — instead
	// of applying backpressure to the arrival process. This is the
	// overload configuration: arrivals keep their Poisson pacing no
	// matter how far behind the server falls, which is what produces shed
	// storms for the flight recorder to catch. The default (closed-loop)
	// SubmitWait never sheds.
	OpenLoop bool
}

// ServeStats reports a serving run in the same shape as the virtual-time
// simulation, plus the real server's concurrency counters. Times are on
// the simulated clock (wall-clock divided by TimeScale) so real and
// simulated runs compare field by field.
type ServeStats struct {
	Items     int   // items in the stats window: the newest StatsWindow completions, server-wide
	Completed int64 // total completions (exceeds Items once the window wraps)
	// AvgQueueWaitSec is the caller's submit -> execution start. It (and
	// every latency below, the queue_wait span and the SLOs) includes the
	// resolution of an external item on the worker that takes it.
	AvgQueueWaitSec float64
	AvgLatencySec   float64 // submit -> completion
	P95LatencySec   float64
	AvgRecall       float64 // over ground-truth-backed items only
	RecallItems     int     // items AvgRecall averaged over (external items have no recall)
	ThroughputHz    float64 // completions per simulated second
	Utilization     float64 // busy worker-time / (workers * horizon)
	HorizonSec      float64 // completion time of the last item

	PeakMemMB float64 // maximum simultaneous GPU reservation (real server)
	MemWaits  int64   // executions that blocked on the memory budget
	Rejected  int64   // non-blocking Submits rejected with ErrQueueFull; SubmitWait never counts
	Failed    int64   // taken items whose resolution failed (their tickets carry the error)

	// Cross-item batching counters (zero unless ServeConfig.BatchSize
	// is set). SavedGPUMS is simulated GPU time avoided versus unbatched
	// execution; BatchSavedMemMB sums the footprint reservations
	// coalesced away on the serial path.
	Batches          int64
	BatchedRequests  int64
	LargestBatch     int
	BatchSavedGPUMS  float64
	BatchSavedMemMB  float64
	PredCacheHits    int64 // shared predictor-cache hits (PredictorCache)
	PredCacheMisses  int64
	PredCacheEntries int
	// ResultsDropped counts Results-stream completions shed because the
	// subscriber fell more than a stats window behind (an abandoned
	// consumer never blocks labeling or grows memory unboundedly).
	ResultsDropped int64

	// AvgSelectSec is the real (unscaled) seconds per item spent inside
	// the policy's Next — the scheduling overhead of the paper's Table
	// III, dominated by Q-network forward passes (memoized per labeling
	// state since the Q-prediction cache). Zero for the virtual-time
	// sim, which models selection as free.
	AvgSelectSec float64

	// Sharding counters. The top-level fields above summarize the one
	// stats window, every shard's completions on one timeline, and sum
	// the shards' counters (PeakMemMB sums the per-shard peaks — the
	// footprint bound); PerShard breaks the run out per shard, one entry
	// for the single-budget server. Steals counts items executed by a
	// shard other than their placed home.
	Shards   int
	Steals   int64
	PerShard []ShardServeStats

	// Telemetry is the full metric snapshot at the moment Stats was
	// called — every registered series, including the per-stage
	// histograms and per-shard views /metrics exposes — or nil when
	// ServeConfig.Telemetry is off. The scalar fields above are views
	// over the same underlying state, so the two never disagree.
	Telemetry []TelemetryMetric
}

// ShardServeStats is one shard's slice of a sharded run. Items,
// ThroughputHz, Utilization and AvgRecall are over that shard's records
// in the server-wide stats window (the window's span, once it wraps);
// the rest are the shard's counters.
type ShardServeStats = shard.ShardStats

// defaultStatsWindow is the stats window when ServeConfig.StatsWindow is
// zero; a window record is 64 B.
const defaultStatsWindow = 1 << 16

// Server is a running concurrent labeling server. Create one with
// NewServer, feed it with Submit or SubmitWait — held-out test images
// and externally ingested items alike — and stop it with Close (which
// drains queued items). Consume completions either per item through
// tickets or as a stream through Results.
type Server struct {
	sys    *System
	corpus *Corpus            // durable ingestion, when configured
	cache  *sched.SharedCache // shared Q-prediction cache (nil unless configured)

	// router owns admission, placement, stealing, the shards' counters
	// and Close over at least one shard server; with a corpus, shard i
	// journals into corpus segment i.
	router    *shard.Router
	placement shard.Placement

	// Telemetry plumbing — all nil unless ServeConfig.Telemetry (or
	// MetricsAddr) asked for it. One registry and one tracer span every
	// shard: per-model series aggregate fleet-wide, per-shard state is
	// broken out through labeled views.
	reg      *obs.Registry
	tracer   *obs.Tracer
	metrics  *serve.Metrics
	exporter *obs.Exporter
	flight   *obs.FlightRecorder

	// start is the one clock epoch: the stats window's records and the
	// server's clock (vnow: the SLOs and the flight recorder) read
	// virtual seconds since it (wall elapsed ÷ scale).
	start time.Time
	scale float64

	// publish, every shard's completion hook, keeps the one stats window
	// and feeds the results stream: it appends each completion's record,
	// with the shard that ran it, to a ring of window records, and sends
	// the result onto res, whose buffer of window results is all the
	// stream keeps (see Results).
	mu         sync.Mutex    // orders publishes; guards the window, and res against Close's close
	recs       []shardRecord // ring of the newest window completions
	recHead    int           // next overwrite position once the ring is full
	completed  []int64       // completions per shard
	window     int
	res        chan *Result // nil until Results or Close
	subscribed atomic.Bool  // Results has made res: publish sends
	resDropped atomic.Int64

	// life is the context external items resolve under. end, the first
	// thing Close does, runs once: it cancels life, then closes the
	// exporter, so no scrape races the teardown (its Close waits for its
	// serve goroutine, keeping leak checks clean), and the flight
	// recorder, whose final poll catches an anomaly still live at
	// shutdown.
	life lifetime
	end  func()
}

// shardRecord is one completion in the stats window: its record on the
// server's epoch and scale, and the shard that ran it.
type shardRecord struct {
	service.Record
	shard int
}

// lifetime is a server's lifetime as a context: Done closes when Close
// begins, and Err then reports ErrServerClosed, which is what a worker's
// cut-short corpus admission fails its ticket with.
type lifetime <-chan struct{}

func (l lifetime) Deadline() (time.Time, bool) { return time.Time{}, false }
func (l lifetime) Done() <-chan struct{}       { return l }
func (l lifetime) Value(any) any               { return nil }
func (l lifetime) Err() error {
	select {
	case <-l:
		return ErrServerClosed
	default:
		return nil
	}
}

// ServeTicket tracks one submitted item to completion. It wraps the
// serving path's one ticket — created where Submit/SubmitWait entered,
// placed by the router, resolved by the executing shard's server — with
// the item it was submitted for.
type ServeTicket struct {
	sys  *System
	item Item
	tk   *serve.Ticket
}

// Done is closed when the item has been labeled or has failed to
// resolve.
func (t *ServeTicket) Done() <-chan struct{} { return t.tk.Done() }

// Wait blocks until the item has been labeled — or ctx is cancelled,
// which abandons the wait (not the item: the server still finishes it)
// and returns ctx.Err(). An item the server could not resolve (its
// corpus admission failed) returns that error.
//
// Commit-of-result is the item's explicit lifetime boundary: by the time
// Wait returns, the result's outputs have been captured by value (and,
// with a corpus, the completion journaled), so the result stays valid
// even after the corpus evicts the item's in-memory outputs.
func (t *ServeTicket) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-t.Done():
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := t.tk.Err(); err != nil {
		return nil, err
	}
	return t.sys.serveResult(t.item, t.tk.Wait()), nil
}

// serveResult converts a server completion — which carries its executed
// outputs by value, captured before the commit — into the public Result.
func (s *System) serveResult(item Item, ir serve.ItemResult) *Result {
	names := make([]string, len(ir.Executed))
	for i, m := range ir.Executed {
		names[i] = s.Zoo.Models[m].Name
	}
	return s.assembleResult(item, names, ir.Outputs, ir.ScheduleMS, ir.Recall, ir.HasRecall)
}

// servePlan is a ServeConfig resolved against the system: everything a
// server, or the simulation of one, is built from. System.plan checks
// the whole configuration before it resolves any of it.
type servePlan struct {
	factory   service.PolicyFactory
	cache     *sched.SharedCache // shared Q-prediction cache (nil unless configured)
	placement shard.Placement
	slos      []SLOObjective // ServeConfig.SLOs, parsed
	telemetry bool
	window    int            // ServeConfig.StatsWindow, defaulted
	workers   []int          // each shard's share of ServeConfig.Workers
	shards    []serve.Config // each shard's config, prepared: defaults filled
}

// plan validates cfg and resolves it into what NewServer and
// SimulateServe build from, so the two refuse the same configurations
// with the same error, and refuse them before anything is built. It
// resolves cfg.Policy (defaulting to Algorithm 1, the server's
// historical behavior) into the per-worker policy factory: each worker
// gets a private instantiation — and through it its own fork of the
// agent, as in LabelBatch. Each shard's config passes the serve layer's
// own rules (serve.Prepare) with that shard's worker share.
func (s *System) plan(agent *Agent, cfg ServeConfig) (servePlan, error) {
	budget := Budget{DeadlineSec: cfg.DeadlineSec, MemoryGB: cfg.MemoryGB}
	if err := budget.Validate(); err != nil {
		return servePlan{}, err
	}
	if cfg.Shards < 0 {
		return servePlan{}, fmt.Errorf("ams: negative shard count %d", cfg.Shards)
	}
	policy := cfg.Policy
	if !policy.valid() {
		policy = PolicyAlgorithm1
	}
	if policy.parallel && cfg.MemoryGB <= 0 {
		return servePlan{}, fmt.Errorf("ams: policy %q serves items in parallel and requires a memory budget", policy.Name())
	}
	if err := policy.check(agent); err != nil {
		return servePlan{}, err
	}
	placement, err := shard.PlacementByName(cfg.ShardPlacement)
	if err != nil {
		return servePlan{}, fmt.Errorf("ams: %w", err)
	}
	n := max(cfg.Shards, 1)
	if cfg.Workers < n {
		return servePlan{}, fmt.Errorf("ams: need at least one worker per shard, got %d for %d shard(s)", cfg.Workers, n)
	}
	if cfg.Corpus != nil && cfg.Corpus.sys.Zoo != s.Zoo {
		return servePlan{}, fmt.Errorf("ams: corpus opened by a different System")
	}
	if cfg.Corpus != nil && cfg.Corpus.Segments() != n {
		return servePlan{}, fmt.Errorf("ams: %d shard(s) need a corpus with as many journal segments (OpenCorpusDir), got %d",
			n, cfg.Corpus.Segments())
	}
	if cfg.TraceCapacity < 0 {
		return servePlan{}, fmt.Errorf("ams: negative trace capacity %d", cfg.TraceCapacity)
	}
	if cfg.StatsWindow < 0 {
		return servePlan{}, fmt.Errorf("ams: negative stats window %d", cfg.StatsWindow)
	}
	p := servePlan{placement: placement, window: cfg.StatsWindow, workers: make([]int, n), shards: make([]serve.Config, n),
		telemetry: cfg.Telemetry || cfg.MetricsAddr != "" || cfg.FlightDir != "" || len(cfg.SLOs) > 0}
	if p.window == 0 {
		p.window = defaultStatsWindow
	}
	for _, spec := range cfg.SLOs {
		o, err := ParseSLO(spec)
		if err != nil {
			return servePlan{}, err
		}
		p.slos = append(p.slos, o)
	}
	for i := range p.shards {
		p.workers[i] = cfg.Workers / n
		if i < cfg.Workers%n {
			p.workers[i]++
		}
		sc := serve.Config{
			Config: service.Config{
				Workers:        p.workers[i],
				DeadlineSec:    cfg.DeadlineSec,
				MemoryBudgetMB: cfg.MemoryGB / float64(n) * 1024,
				ItemParallel:   policy.runsParallel(budget),
			},
			QueueCap:    cfg.QueueCap,
			BatchSize:   cfg.BatchSize,
			BatchHoldMS: cfg.BatchHoldMS,
			TimeScale:   cfg.TimeScale,
		}
		if cfg.QueueCap > 0 {
			sc.QueueCap = max(cfg.QueueCap/n, 1)
		}
		if p.shards[i], err = serve.Prepare(s.testStore, sc); err != nil {
			return servePlan{}, fmt.Errorf("ams: %w", err)
		}
	}
	if cfg.PredictorCache {
		p.cache = sched.NewSharedCache(0)
	}
	cache := p.cache
	p.factory = func(int) sim.Policy { return policy.instantiate(s, agent, cache) }
	return p, nil
}

// NewServer starts a concurrent labeling server driven by the agent. The
// server labels built-in test images from the precomputed store and
// ingested external items by running models on demand, under the same
// policies and budgets.
func (s *System) NewServer(agent *Agent, cfg ServeConfig) (*Server, error) {
	p, err := s.plan(agent, cfg)
	if err != nil {
		return nil, err
	}
	return s.newServer(cfg, p)
}

// newServer builds and starts the server a checked plan of cfg describes.
func (s *System) newServer(cfg ServeConfig, p servePlan) (*Server, error) {
	sv := &Server{sys: s, corpus: cfg.Corpus, cache: p.cache, placement: p.placement,
		start: time.Now(), scale: p.shards[0].TimeScale, window: p.window, completed: make([]int64, len(p.shards))}
	life := make(chan struct{})
	sv.life, sv.end = life, sync.OnceFunc(func() {
		close(life)
		_ = sv.exporter.Close()
		_ = sv.flight.Close()
	})
	if p.telemetry {
		sv.reg = obs.NewRegistry()
		sv.tracer = obs.NewTracer(cfg.TraceCapacity)
		sv.tracer.SetTimeScale(sv.scale)
		names := make([]string, len(s.Zoo.Models))
		for i, mod := range s.Zoo.Models {
			names[i] = mod.Name
		}
		sv.tracer.SetModelNames(names)
		sv.metrics = serve.NewMetrics(sv.reg, s.Zoo.Models)
	}

	// Each shard is a serve.Server over the test store.
	shards := make([]*serve.Server, 0, len(p.shards))
	closeBuilt := func() {
		for _, sh := range shards {
			sh.Close()
		}
	}
	for i, sc := range p.shards {
		sc.Metrics, sc.Tracer = sv.metrics, sv.tracer
		if cfg.Corpus != nil {
			// History already committed in the journal was delivered
			// before: reclaim its memos so a reopened corpus does not pin
			// them. ReplayCorpus recovers those results *before* building
			// a server.
			cfg.Corpus.segs[i].ReclaimCommitted()
		}
		sh, err := serve.New(s.testStore, p.factory, sc)
		if err != nil {
			closeBuilt()
			return nil, fmt.Errorf("ams: %w", err)
		}
		sh.OnFinish(sv.publish)
		shards = append(shards, sh)
	}
	router, err := shard.New(shards, shard.Config{
		Placement: p.placement,
		Steal:     cfg.ShardSteal,
		Models:    len(s.Zoo.Models),
		Workers:   p.workers,
	})
	if err != nil {
		closeBuilt()
		return nil, fmt.Errorf("ams: %w", err)
	}
	sv.router = router
	return sv.finishTelemetry(cfg, p.slos, shards)
}

// finishTelemetry completes a constructed server's observability: it
// registers the live-state views (per-shard serve gauges, router
// counters, corpus durability metrics, predictor-cache stats) and —
// last, after every other fallible construction step — binds the HTTP
// exporter, so a bind failure tears the fully built server down
// cleanly. No-op without telemetry.
func (sv *Server) finishTelemetry(cfg ServeConfig, slos []SLOObjective, shards []*serve.Server) (*Server, error) {
	if sv.reg == nil {
		return sv, nil
	}
	for i, sh := range shards {
		sh.RegisterViews(sv.reg, obs.L("shard", strconv.Itoa(i)))
	}
	sv.router.RegisterViews(sv.reg)
	sv.reg.CounterFunc("ams_results_dropped_total",
		"Results-stream entries shed behind a lagging consumer",
		sv.resDropped.Load)
	if sv.corpus != nil {
		for i, seg := range sv.corpus.segs {
			label := obs.L("seg", strconv.Itoa(i))
			seg.SetMetrics(corpus.NewMetrics(sv.reg, label))
			seg.RegisterViews(sv.reg, label)
		}
	}
	if sv.cache != nil {
		sv.reg.CounterFunc("ams_predcache_hits_total",
			"Shared Q-prediction cache hits",
			func() int64 { h, _, _ := sv.cache.Stats(); return h })
		sv.reg.CounterFunc("ams_predcache_misses_total",
			"Shared Q-prediction cache misses",
			func() int64 { _, m, _ := sv.cache.Stats(); return m })
		sv.reg.GaugeFunc("ams_predcache_entries",
			"Entries resident in the shared Q-prediction cache",
			func() float64 { _, _, n := sv.cache.Stats(); return float64(n) })
	}
	// Ring evictions: traces lost to capacity before anyone read them.
	sv.reg.CounterFunc("ams_trace_evicted_total",
		"Completed traces overwritten by ring wraparound",
		sv.tracer.Evicted)
	sv.buildSLOs(cfg.DeadlineSec, slos)
	if cfg.FlightDir != "" {
		sv.armFlightRecorder(cfg.FlightDir)
	}
	if cfg.MetricsAddr != "" {
		exp, err := obs.NewExporter(cfg.MetricsAddr, sv.reg, sv.tracer, func() any { return sv.Stats() })
		if err != nil {
			_ = sv.Close()
			return nil, fmt.Errorf("ams: metrics exporter: %w", err)
		}
		sv.exporter = exp
	}
	return sv, nil
}

// vnow is the server's clock: virtual seconds since start (wall elapsed
// ÷ scale). The SLOs' burn windows and the flight recorder's trigger
// rates and cooldown all advance on it, so a 0.01× test run and a
// real-time run account burn and fire triggers identically.
func (sv *Server) vnow() float64 { return time.Since(sv.start).Seconds() / sv.scale }

// buildSLOs constructs the server's latency objectives — the implicit
// "deadline" objective (p99 within the scheduling deadline) plus every
// parsed ServeConfig.SLOs objective — on the server's clock, registers
// their ams_slo_* views, and threads them into the serve layer's
// completion hook. Runs before any item is admitted, so the slice is
// never written concurrently with itemDone reads.
func (sv *Server) buildSLOs(deadlineSec float64, objectives []SLOObjective) {
	var slos []*obs.SLO
	if deadlineSec > 0 {
		slos = append(slos, obs.NewSLO("deadline", deadlineSec, 0.99, sv.vnow))
	}
	for _, o := range objectives {
		slos = append(slos, obs.NewSLO(o.Name, o.ThresholdSec, o.Quantile, sv.vnow))
	}
	for _, slo := range slos {
		slo.RegisterViews(sv.reg)
	}
	sv.metrics.SLOs = slos
}

// armFlightRecorder builds the anomaly flight recorder with the
// server's default trigger catalog, on the server's clock, and starts
// its poll loop. Triggers only read counters and burn gauges — nothing
// feeds back into scheduling.
func (sv *Server) armFlightRecorder(dir string) {
	fr := obs.NewFlightRecorder(dir, sv.reg, sv.tracer, sv.vnow,
		// Shed storm: sheds at any shard's queue growing faster than 5/s.
		obs.Trigger{Name: "shed-storm", Fire: obs.RateTrigger(sv.vnow, sv.router.ShedTotal, 5)},
		// Deadline burn: any objective's fast burn window at 8× budget —
		// the classic page-level fast-burn threshold.
		obs.Trigger{Name: "deadline-burn", Fire: obs.ThresholdTrigger(func() float64 {
			worst := 0.0
			for _, slo := range sv.metrics.SLOs {
				worst = max(worst, slo.BurnRate(obs.FastBurnSec))
			}
			return worst
		}, 8)},
		// Steal storm: sustained stealing means placement is fighting
		// the load instead of spreading it.
		obs.Trigger{Name: "steal-storm", Fire: obs.RateTrigger(sv.vnow, sv.router.StealsTotal, 20)},
		// Reserve stall: executions piling into the memory accountant's
		// wait queue faster than 50/s.
		obs.Trigger{Name: "reserve-stall", Fire: obs.RateTrigger(sv.vnow, sv.metrics.ReserveWait.Count, 50)},
	)
	fr.RegisterViews(sv.reg)
	fr.Start()
	sv.flight = fr
}

// resolve maps an external item onto the executor it runs on. It runs
// on the worker that takes the item, so a corpus admission lands in the
// journal segment of shard sh, the one executing it.
//
// Without a corpus the item is its own executor and the shard keeps
// nothing: once its result is delivered, nothing of the server holds it,
// and a resubmission replays the memo the item carries. With a corpus,
// the segment admits the item, or finds it, by its (id, scene): the item
// runs on the segment's copy, begun here and committing itself when its
// schedule completes, whose outputs are journaled as they land, and is
// journaled once per segment however often it is submitted, also across
// restarts. Committed items are evicted, bounding residency at
// CorpusOptions.MaxResident: an admission at the watermark waits for an
// eviction, which is backpressure on the shard's queue, until the
// server's lifetime ends.
func (sv *Server) resolve(sh int, ext *oracle.ExternalItem, tag string) (oracle.Executor, error) {
	if sv.corpus == nil {
		return ext.Executor(), nil
	}
	seg := sv.corpus.segs[sh]
	seq, err := seg.AdmitWait(sv.life, *ext.Scene(), tag)
	if err != nil {
		return nil, err
	}
	seg.Begin(seq)
	return seg.Item(seq).Executor(), nil
}

// itemKey is the stable routing identity for hash placement: the item's
// id when it has one, the test-split index otherwise, the scene's
// generation seed as a last resort — all properties that survive a
// restart, so a key lands on the same shard across runs.
func (s *System) itemKey(item Item, ext *oracle.ExternalItem) uint64 {
	if item.id != "" {
		h := fnv.New64a()
		h.Write([]byte(item.id))
		return h.Sum64()
	}
	if ext == nil {
		return uint64(item.image)
	}
	return ext.Scene().Seed
}

// affinityHint lists the models expected to carry the item's value —
// the affinity placement signal. For test items the hint derives from
// the ground truth's per-label value; for external items, from the
// scene's declared content. Production fronts would use whatever cheap
// prior they have (content type, tenant, camera); any consistent hint
// groups like traffic.
func (s *System) affinityHint(item Item, ext *oracle.ExternalItem) []int {
	h := hintScratchPool.Get().(*hintScratch)
	if ext == nil {
		for l, v := range s.testStore.Truth(item.image).LabelValue {
			h.add(l, v)
		}
	} else {
		scene := ext.Scene()
		h.add(scene.Place, 1)
		for _, l := range scene.Objects {
			h.add(l, 1)
		}
		h.add(scene.Emotion, 1)
		h.add(scene.Gender, 1)
		h.add(scene.Action, 1)
		h.add(scene.Dog, 1)
		for _, l := range scene.PoseKP {
			h.add(l, 1)
		}
		for _, l := range scene.HandKP {
			h.add(l, 1)
		}
	}
	hint := s.Zoo.SupportingModels(h.weights)
	h.reset()
	hintScratchPool.Put(h)
	return hint
}

// hintScratch is affinityHint's dense per-label weight vector. It is all
// zero between uses: reset clears exactly the labels add touched.
type hintScratch struct {
	weights []float64 // indexed by label ID
	set     []int     // labels added since the last reset
}

var hintScratchPool = sync.Pool{New: func() any {
	return &hintScratch{weights: make([]float64, labels.Total)}
}}

// add credits label l (a negative l is "absent") with weight v.
func (h *hintScratch) add(l int, v float64) {
	if l >= 0 {
		h.weights[l] += v
		h.set = append(h.set, l)
	}
}

func (h *hintScratch) reset() {
	for _, l := range h.set {
		h.weights[l] = 0
	}
	h.set = h.set[:0]
}

// routedItem builds the router submission for an item. External items
// resolve lazily, on the worker that takes them, so their corpus
// admission lands in the executing shard's own journal segment — also
// when stolen.
func (sv *Server) routedItem(item Item) (shard.Item, error) {
	ext, err := sv.sys.checkItem(item)
	if err != nil {
		return shard.Item{}, err
	}
	it := shard.Item{
		Key: sv.sys.itemKey(item, ext),
		Tag: item.id,
	}
	if sv.placement == shard.Affinity {
		// Hints cost a pass over the zoo per submission; only the
		// affinity router reads them.
		it.Hint = sv.sys.affinityHint(item, ext)
	}
	if ext == nil {
		it.Index = item.image
	} else {
		it.Resolve = func(sh int) (oracle.Executor, error) { return sv.resolve(sh, ext, item.id) }
	}
	return it, nil
}

// Submit admits one item without blocking; ErrQueueFull (the item's
// home queue is saturated) means the caller should back off and retry.
// External items are journaled by the worker that takes them, on the
// shard that executes them, so a corpus at its watermark surfaces as
// queue backpressure (the shard's worker waits for an eviction).
func (sv *Server) Submit(item Item) (*ServeTicket, error) {
	return sv.submit(nil, item)
}

// SubmitWait admits one item, blocking while its home queue is full
// until space frees or the context is cancelled (returning ctx.Err()).
func (sv *Server) SubmitWait(ctx context.Context, item Item) (*ServeTicket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return sv.submit(ctx, item)
}

// submit is the one admission path: Submit when ctx is nil, SubmitWait
// otherwise.
func (sv *Server) submit(ctx context.Context, item Item) (*ServeTicket, error) {
	it, err := sv.routedItem(item)
	if err != nil {
		return nil, err
	}
	var tk *serve.Ticket
	if ctx == nil {
		tk, err = sv.router.Submit(it)
	} else {
		tk, err = sv.router.SubmitWait(ctx, it)
	}
	if err != nil {
		return nil, err
	}
	return &ServeTicket{sys: sv.sys, item: item, tk: tk}, nil
}

// Checkpoint compacts the server's corpus immediately: each journal is
// rewritten with every item's admit, outputs and commit once, and the
// rewrite renamed over it. It fails when the server was built without
// ServeConfig.Corpus.
func (sv *Server) Checkpoint() error {
	if sv.corpus == nil {
		return fmt.Errorf("ams: server has no corpus to checkpoint")
	}
	return sv.corpus.snapshot()
}

// Results subscribes to the server's completion stream: every item
// finished after the call is delivered in completion order, without the
// caller holding tickets. The channel closes once Close has drained the
// server; called after Close, Results returns a closed channel. Repeated
// calls share one subscription, and a subscription starts no goroutine.
// Subscribe before submitting — earlier completions are not replayed. A
// slow or abandoned consumer never blocks labeling or Close: the channel
// buffers exactly ServeConfig.StatsWindow undelivered results, and a
// completion that finds it full first drops the oldest
// (ServeStats.ResultsDropped counts them).
//
// Every delivered result was committed first — commit-of-result is the
// item's lifetime boundary: the result's labels and outputs are captured
// by value at commit, so a lagging consumer still reads intact results
// after the corpus has evicted (or a journal has compacted away) the
// items they came from.
func (sv *Server) Results() <-chan *Result {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.res == nil {
		// The buffer is the stream's whole store: StatsWindow
		// undelivered results, the bound publish keeps.
		sv.res = make(chan *Result, sv.window)
		sv.subscribed.Store(true)
	}
	return sv.res
}

// publish is every shard's completion hook. It counts the completion
// and writes its record, on the server's epoch and scale, into the stats
// window, overwriting the oldest once the ring is full, so a
// long-running server's footprint stays bounded. With a subscriber it
// sends the result on the stream, first dropping the oldest undelivered
// one when the consumer is a full stats window behind, so an abandoned
// subscription cannot retain every completion for the server's
// lifetime. The lock orders the publishes of every shard's workers; the
// consumer only receives, so nothing under the lock blocks.
func (sv *Server) publish(ir serve.ItemResult) {
	var res *Result
	subscribed := sv.subscribed.Load()
	if subscribed {
		// An ingested item's Image is already -1: no test-split index.
		res = sv.sys.serveResult(Item{id: ir.Tag, image: ir.Image, valid: true}, ir)
	}
	rec := shardRecord{ir.Record(sv.start, sv.scale), ir.Shard}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.completed[ir.Shard]++
	if len(sv.recs) < sv.window {
		sv.recs = append(sv.recs, rec)
	} else {
		sv.recs[sv.recHead] = rec
		sv.recHead = (sv.recHead + 1) % sv.window
	}
	if !subscribed {
		return
	}
	for {
		select {
		case sv.res <- res:
			return
		default:
		}
		select {
		case <-sv.res:
			sv.resDropped.Add(1)
		default: // the consumer took one meanwhile
		}
	}
}

// Stats summarizes the items completed so far: the top-level fields
// reduce the one stats window, the newest StatsWindow completions of
// every shard, and sum the shards' counters; PerShard reduces each
// shard's records in that window beside its counters.
func (sv *Server) Stats() ServeStats {
	rst := sv.router.Stats()
	sv.mu.Lock()
	win, completed := slices.Clone(sv.recs), slices.Clone(sv.completed)
	sv.mu.Unlock()
	recs, own := make([]service.Record, len(win)), make([][]service.Record, len(completed))
	for i, r := range win {
		recs[i] = r.Record
		own[r.shard] = append(own[r.shard], r.Record)
	}
	workers := sv.router.Workers()
	var total int64
	pool := 0
	for s, c := range completed {
		total += c
		pool += workers[s]
	}
	window := service.SummarizeWindow(recs, pool, total)
	st := fromStats(window)
	st.Completed = total
	st.PeakMemMB, st.MemWaits = rst.Total.PeakMemMB, rst.Total.MemWaits
	st.Rejected, st.Failed = rst.Total.Rejected, rst.Total.Failed
	b := rst.Total.Batching
	st.Batches, st.BatchedRequests, st.LargestBatch = b.Batches, b.Requests, b.LargestBatch
	st.BatchSavedGPUMS, st.BatchSavedMemMB = b.SavedGPUMS, b.SavedMemMB
	st.Steals = rst.Steals
	st.Shards = len(rst.PerShard)
	st.PerShard = rst.PerShard
	for s := range st.PerShard {
		w := window // one shard: its records are the whole window
		if st.Shards > 1 {
			w = service.SummarizeWindow(own[s], workers[s], completed[s])
		}
		ps := &st.PerShard[s]
		ps.Items, ps.Completed, ps.AvgRecall = w.Items, completed[s], w.AvgRecall
		ps.ThroughputHz, ps.Utilization = w.ThroughputHz, w.Utilization
	}
	st.ResultsDropped = sv.resDropped.Load()
	if sv.cache != nil {
		st.PredCacheHits, st.PredCacheMisses, st.PredCacheEntries = sv.cache.Stats()
	}
	st.Telemetry = sv.reg.Snapshot()
	return st
}

// Close stops admission, drains every shard's queue, and waits for
// in-flight items. The span-trace ring stays readable afterwards
// (WriteChromeTrace, Traces).
//
// Close first cuts short every corpus admission waiting on the
// MaxResident watermark: such an item fails with ErrServerClosed
// (counted in ServeStats.Failed) instead of holding Close until an
// eviction that may never come, as when a reopened corpus's uncommitted
// items fill the watermark. An item that can be admitted still drains.
// Replay a reopened corpus (ReplayCorpus) before serving from it.
//
// A shard that drains with GPU memory still claimed fails Close with an
// error naming the megabytes, and a drained server whose tracer handed
// out item traces it never published fails it with an error naming
// their count; the server is closed all the same. A second Close
// returns ErrServerClosed alone.
func (sv *Server) Close() error {
	sv.end() // then the shards drain
	err := sv.router.Close()
	if err != ErrServerClosed {
		// This call drained every shard, so every publish has happened:
		// end the stream, or make a later Results return it ended.
		sv.mu.Lock()
		if sv.res == nil {
			sv.res = make(chan *Result)
		}
		close(sv.res)
		sv.mu.Unlock()
		if n := sv.tracer.Unended(); n > 0 {
			err = errors.Join(err, fmt.Errorf("ams: closed with %d item traces never ended", n))
		}
	}
	return err
}

// WriteChromeTrace exports up to n recent span traces (all resident
// traces when n <= 0) as Chrome trace-event / Perfetto JSON — the same
// payload as /tracez?format=chrome; after Close it holds every completed
// trace still in the ring. A server without telemetry writes an empty
// trace document.
func (sv *Server) WriteChromeTrace(w io.Writer, n int) error {
	if n <= 0 {
		n = sv.tracer.Capacity()
		if n == 0 {
			n = 1
		}
	}
	return sv.tracer.WriteChrome(w, n, "")
}

// check validates a trace for a server at the given time scale, the one
// trace rule of Replay and SimulateServe. Besides a positive rate and
// item count, the trace's worst-case horizon must be finite and, scaled,
// fit the time.Duration Replay sleeps until each arrival: every
// gap is at most 53·ln 2 / rate seconds, since the RNG never draws a
// uniform below 2⁻⁵³.
func (trace ServeTrace) check(scale float64) error {
	if trace.ArrivalRateHz <= 0 || !finite(trace.ArrivalRateHz) || trace.Items <= 0 {
		return fmt.Errorf("ams: serve needs a positive arrival rate and item count, got %v Hz / %d items",
			trace.ArrivalRateHz, trace.Items)
	}
	horizon := float64(trace.Items) * 53 * math.Ln2 / trace.ArrivalRateHz
	if !finite(horizon) || horizon*scale*float64(time.Second) >= math.MaxInt64 {
		return fmt.Errorf("ams: %d arrivals at %v Hz may span %v s, out of range at time scale %v",
			trace.Items, trace.ArrivalRateHz, horizon, scale)
	}
	return nil
}

// Replay submits a Poisson arrival trace to the server, pulling items
// from src (nil: the built-in test split, cycled), paced on the server's
// time scale, and returns once the last arrival is admitted — or shed,
// with trace.OpenLoop — leaving the server open. It ends early when the
// source is exhausted (nil error) or ctx is cancelled (ctx.Err()).
// Close the server to wait for the admitted items.
func (sv *Server) Replay(ctx context.Context, trace ServeTrace, src SceneSource) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := trace.check(sv.scale); err != nil {
		return err
	}
	if src == nil {
		src = sv.sys.TestSplitSource()
	}
	// The arrival process paces itself on a wheel of its own, like the
	// executions it feeds: a raw runtime timer rounds the sub-millisecond
	// gaps of a scaled or kilohertz trace up to the millisecond.
	pace := vtime.NewWheel()
	defer pace.Stop()
	due := make(chan struct{}, 1) // one arrival is waited for at a time
	arrive := func() { due <- struct{}{} }
	start := time.Now()
	for at := range service.Arrivals(trace.Items, trace.ArrivalRateHz, trace.Seed) {
		item, ok := src.Next()
		if !ok {
			return nil // source exhausted: serve what arrived
		}
		if d := time.Duration(at*sv.scale*float64(time.Second)) - time.Since(start); d > 0 {
			pace.AfterFunc(d, arrive)
			select {
			case <-due:
			case <-ctx.Done():
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if trace.OpenLoop {
			// Open loop: shed on backpressure, never block the arrival
			// process. Sheds are already counted by the admission path.
			if _, err := sv.Submit(item); err != nil && err != ErrQueueFull {
				return err
			}
			continue
		}
		if _, err := sv.SubmitWait(ctx, item); err != nil {
			return err
		}
	}
	return nil
}

// SimulateServe runs the virtual-time discrete-event simulation of the
// same workload — same Config and policy wiring as a Server replaying
// the trace, no real concurrency or sleeping — so the two can be
// compared side by side. It
// resolves cfg exactly as NewServer does, so it refuses every
// configuration NewServer refuses, with the same error.
// Each item runs in the mode the configuration selects (Algorithm 2's
// per-item parallel execution for PolicyAlgorithm2, serial otherwise)
// under the memory budget of one shard. The simulation replays the
// built-in test split (virtual time cannot consume a live external
// source) and models an unbounded FIFO queue with no contention between
// items: every item sees its shard's whole memory budget, and the queue
// bound and batching do not apply.
func (s *System) SimulateServe(agent *Agent, cfg ServeConfig, trace ServeTrace) (ServeStats, error) {
	p, err := s.plan(agent, cfg)
	if err != nil {
		return ServeStats{}, err
	}
	if err := trace.check(p.shards[0].TimeScale); err != nil {
		return ServeStats{}, err
	}
	svcCfg := p.shards[0].Config
	svcCfg.Workers = cfg.Workers
	arrivals := slices.Collect(service.Arrivals(trace.Items, trace.ArrivalRateHz, trace.Seed))
	return fromStats(service.Run(s.testStore, p.factory, svcCfg, arrivals)), nil
}

// fromStats is the one conversion of a summary into ServeStats: the
// window fields, with every completion retained (Completed is Items).
func fromStats(st service.Stats) ServeStats {
	return ServeStats{
		Items:           st.Items,
		Completed:       int64(st.Items),
		AvgQueueWaitSec: st.AvgQueueWaitSec,
		AvgLatencySec:   st.AvgLatencySec,
		P95LatencySec:   st.P95LatencySec,
		AvgRecall:       st.AvgRecall,
		RecallItems:     st.RecallItems,
		ThroughputHz:    st.ThroughputHz,
		Utilization:     st.Utilization,
		HorizonSec:      st.HorizonSec,
		AvgSelectSec:    st.AvgSelectSec,
	}
}
