package ams

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"ams/internal/corpus"
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
	// means PolicyAlgorithm1, the server's historical default. With
	// PolicyAlgorithm2 (which requires MemoryGB) the server switches to
	// per-item parallel mode: one item's models run concurrently across
	// the pool under the shared accountant, matching sim.RunParallel
	// semantics.
	Policy Policy
	// DeadlineSec is the per-item scheduling budget, as in Label.
	DeadlineSec float64
	// MemoryGB, when positive, is the GPU memory budget shared by ALL
	// workers: Algorithm 2's joint constraint enforced globally, so the
	// sum of in-flight model footprints across the pool never exceeds
	// it. Workers block when the budget is saturated.
	MemoryGB float64
	// QueueCap bounds the admission queue (default 2*Workers); Submit
	// rejects with ErrQueueFull when it is saturated. A sharded server
	// divides it evenly (at least 1 per shard), and that share bounds each
	// of a shard's two queues — the router's pending queue, which is where
	// Submit sheds, and the shard server's admission queue — so one shard
	// holds at most 2*share queued items plus two per worker (one being
	// dispatched, one executing).
	QueueCap int
	// BatchSize, when positive, turns on cross-item dynamic batching:
	// same-model demand from the whole worker pool coalesces into
	// batched executions of at most BatchSize requests, each costing a
	// fixed launch overhead plus a per-item marginal instead of the full
	// model time per item — and, under a memory budget, reserving the
	// model's footprint once per batch instead of once per request.
	// Schedules (and recall) are unchanged: deadlines charge the nominal
	// model time. One runs every request alone, reproducing unbatched
	// execution exactly; zero disables batching.
	BatchSize int
	// BatchHoldMS bounds, on the simulated clock, how long a lone
	// request waits in its model's lane for batch-mates before flushing.
	// Zero uses the server's default (10 ms) when batching is on.
	BatchHoldMS float64
	// PredictorCache, when set, shares one bounded Q-prediction cache
	// across all workers and items: every worker reads the same frozen
	// weights, so any worker's forward pass for a labeling state answers
	// that state everywhere. ServeStats reports its hit rate.
	PredictorCache bool
	// TimeScale is the real seconds slept per simulated second of model
	// execution (default 1.0). Small values run the full concurrent
	// machinery at test speed.
	TimeScale float64
	// StatsWindow is how many completed items Stats retains (default
	// 65536): a long-running server summarizes only the most recent
	// window, while ServeStats.Completed keeps the total count.
	StatsWindow int
	// Corpus, when non-nil, makes ingestion durable and bounded: every
	// external item the server admits is journaled (scene, each
	// memoized model output, and the completed schedule), evicted from
	// memory once committed and unreferenced, and recoverable after a
	// crash via OpenCorpus + ReplayCorpus. Creating the server reclaims
	// the memos of items already committed in the corpus's journal —
	// replay first (ReplayCorpus) if those results are still wanted.
	Corpus *Corpus
	// Shards, when 2 or more, splits the server into that many
	// independent shards — each one a worker pool with its own memory
	// accountant (MemoryGB and Workers divide across them) and, with a
	// corpus, its own journal segment (the corpus must have been opened
	// with OpenCorpusDir at the same segment count) — fronted by a
	// router that places items per ShardPlacement. One shard (or zero,
	// the default) is the single-budget server: the same construction
	// with no router in front.
	Shards int
	// ShardPlacement picks the router's placement policy: "hash"
	// (default; consistent hash of the item identity, stable across
	// restarts), "least" (fewest pending+in-flight), or "affinity"
	// (items whose valuable labels map to a shard's hot models land
	// together, keeping those models' working set stable per shard).
	ShardPlacement string
	// ShardSteal lets a shard whose queue idles steal pending items from
	// its most loaded sibling (never items pinned by replay).
	ShardSteal bool
	// Telemetry turns on the server's live metric registry and item
	// tracer: per-stage latency histograms, per-model execution counters,
	// per-shard live gauges, and a bounded ring of per-item span trees
	// (each decision's deadline and memory budget on the span that timed
	// it), snapshotted through ServeStats.Telemetry, Traces, and
	// TraceFor. Instruments only observe — schedules are bit-identical
	// with telemetry on or off — and when this is unset (and MetricsAddr
	// is empty) the whole path is inert: no registry exists and the hot
	// path allocates nothing.
	Telemetry bool
	// MetricsAddr, when non-empty (host:port; ":0" picks a free port),
	// additionally serves the telemetry over HTTP: /metrics (Prometheus
	// text), /statusz (JSON status + metric snapshot), /tracez (recent
	// decision traces; ?format=chrome exports Perfetto-loadable JSON),
	// and /debug/pprof. Implies Telemetry. The listener shuts down with
	// Close. MetricsAddr reports the bound address.
	MetricsAddr string
	// TraceCapacity sets how many completed item traces the tracer
	// retains in its ring (default 256). Ring evictions and spans dropped
	// past the per-trace cap are surfaced as ams_trace_* series.
	TraceCapacity int
	// SLOs lists latency objectives the server accounts every completed
	// item against, each spec "p99<250ms" or "name:p95<1s" (quantile is
	// the good-fraction target, the duration is the threshold on the
	// simulated clock). A "deadline" objective — p99 within DeadlineSec —
	// is always present when telemetry is on. Burn rates over 5 m / 1 h
	// virtual-clock windows export as ams_slo_* series. Implies
	// Telemetry.
	SLOs []string
	// FlightDir, when non-empty, arms the anomaly flight recorder: the
	// server polls trigger conditions (shed-rate spike, deadline-burn,
	// steal storm, reserve-wait stall) and on firing atomically writes a
	// timestamped JSON bundle — the recent span-trace ring plus the full
	// metric snapshot, the moments *before* the anomaly — into this
	// directory. Implies Telemetry.
	FlightDir string
	// TraceOut, when non-empty, writes the span-trace ring as Chrome
	// trace-event JSON (loadable in Perfetto / chrome://tracing) to this
	// path when the server closes. Implies Telemetry.
	TraceOut string
}

// ServeTrace describes a Poisson arrival trace for Serve and
// SimulateServe.
type ServeTrace struct {
	ArrivalRateHz float64 // mean arrivals per second
	Items         int     // stream length
	Seed          uint64
	// OpenLoop submits without blocking: an item arriving into a
	// saturated queue (or a corpus at its watermark) is shed — counted in
	// ServeStats.Rejected — instead of applying backpressure to the
	// arrival process. This is the overload configuration: arrivals keep
	// their Poisson pacing no matter how far behind the server falls,
	// which is what produces shed storms for the flight recorder to
	// catch. The default (closed-loop) SubmitWait never sheds.
	OpenLoop bool
}

// ServeStats reports a serving run in the same shape as the virtual-time
// simulation, plus the real server's concurrency counters. Times are on
// the simulated clock (wall-clock divided by TimeScale) so real and
// simulated runs compare field by field.
type ServeStats struct {
	Items     int   // items in the summarized window
	Completed int64 // total completions (exceeds Items once the window wraps)
	// AvgQueueWaitSec is the caller's submit -> execution start. On a
	// sharded server the clock starts where Submit/SubmitWait enters the
	// router, so it (and every latency below, the queue_wait span and the
	// SLOs) includes router-pending and dispatch-time resolution time.
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

	// Sharding counters. Shards is 1 for the single-budget server; with
	// ServeConfig.Shards >= 2 the top-level fields above merge every
	// shard's records on one shared timeline (PeakMemMB sums the
	// per-shard peaks — the footprint bound) and PerShard breaks the run
	// out per shard. Steals counts items executed by a shard other than
	// their placed home.
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

// ShardServeStats is one shard's slice of a sharded run.
type ShardServeStats = shard.ShardStats

// Server is a running concurrent labeling server. Create one with
// NewServer, feed it with Submit or SubmitWait — held-out test images
// and externally ingested items alike — and stop it with Close (which
// drains queued items). Consume completions either per item through
// tickets or as a stream through Results.
type Server struct {
	sys    *System
	corpus *Corpus            // durable ingestion, when configured
	cache  *sched.SharedCache // shared Q-prediction cache (nil unless configured)

	// shards always holds at least one entry, all built by the same
	// loop. With two or more a router fronts them and owns placement,
	// stealing and the merged stats; with one the router is nil and
	// admission, stats and Close go to shards[0] directly.
	shards    []*serverShard
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

	// SLO clock: virtual seconds since start (wall elapsed ÷ scale).
	start time.Time
	scale float64

	traceOut  string // Chrome trace dump path, written once at Close
	traceOnce sync.Once

	resOnce sync.Once
	res     chan *Result
}

// serverShard is one shard of the server: one worker pool
// (serve.Server, with its own memory accountant) plus its own ingestion
// state — the on-demand executor or, with a corpus, its own journal
// segment's Source.
type serverShard struct {
	sys    *System
	ingest *oracle.OnDemand // test store + dynamically ingested items (no corpus)
	src    *corpus.Source   // this shard's corpus segment view (nil without corpus)
	inner  *serve.Server

	// ingested memoizes each external item's executor index so repeated
	// submissions of one item — including backoff-retries after
	// ErrQueueFull — reuse the slot instead of growing the executor per
	// attempt. admitting marks items whose (possibly blocking) corpus
	// admission is in flight, so one item is never journaled twice; mu
	// itself is never held across a wait.
	mu        sync.Mutex
	ingested  map[*oracle.ExternalItem]int
	admitting map[*oracle.ExternalItem]chan struct{}
}

// ServeTicket tracks one submitted item to completion. It wraps the
// serving path's one ticket — created where Submit/SubmitWait entered,
// queued by the router when there is one, resolved by the executing
// shard's server — with the item it was submitted for.
type ServeTicket struct {
	sys  *System
	item Item
	tk   *serve.Ticket
}

// Done is closed when the item has been labeled or has failed to
// dispatch.
func (t *ServeTicket) Done() <-chan struct{} { return t.tk.Done() }

// Wait blocks until the item has been labeled — or ctx is cancelled,
// which abandons the wait (not the item: the server still finishes it)
// and returns ctx.Err(). An item a sharded server could not dispatch
// (its resolution failed, or its shard closed first) returns that error.
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

// NewServer starts a concurrent labeling server driven by the agent. The
// server labels built-in test images from the precomputed store and
// ingested external items by running models on demand, under the same
// policies and budgets.
func (s *System) NewServer(agent *Agent, cfg ServeConfig) (*Server, error) {
	factory, policy, cache, err := s.serveFactory(agent, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("ams: negative shard count %d", cfg.Shards)
	}
	placement, err := shard.PlacementByName(cfg.ShardPlacement)
	if err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	if cfg.Corpus != nil && cfg.Corpus.sys.Zoo != s.Zoo {
		return nil, fmt.Errorf("ams: corpus opened by a different System")
	}
	sv := &Server{sys: s, corpus: cfg.Corpus, cache: cache, placement: placement,
		start: time.Now(), scale: cfg.TimeScale, traceOut: cfg.TraceOut}
	if sv.scale <= 0 {
		sv.scale = 1.0 // the serve layer's own default; keep the SLO clock on it
	}
	if cfg.Telemetry || cfg.MetricsAddr != "" || cfg.FlightDir != "" || cfg.TraceOut != "" || len(cfg.SLOs) > 0 {
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

	n := max(cfg.Shards, 1)
	if cfg.Workers < n {
		return nil, fmt.Errorf("ams: need at least one worker per shard, got %d for %d shard(s)", cfg.Workers, n)
	}
	if cfg.Corpus != nil && cfg.Corpus.Segments() != n {
		return nil, fmt.Errorf("ams: %d shard(s) need a corpus with as many journal segments (OpenCorpusDir), got %d",
			n, cfg.Corpus.Segments())
	}
	// What every shard's server is built with, but for its own Workers
	// and Shard index.
	shardCfg := serve.Config{
		Config: service.Config{
			DeadlineSec:    cfg.DeadlineSec,
			MemoryBudgetMB: cfg.MemoryGB / float64(n) * 1024,
			ItemParallel:   policy.parallel,
		},
		QueueCap:    cfg.QueueCap,
		BatchSize:   cfg.BatchSize,
		BatchHoldMS: cfg.BatchHoldMS,
		TimeScale:   cfg.TimeScale,
		StatsWindow: cfg.StatsWindow,
		// One clock epoch, so the shards' completion records merge into a
		// single coherent timeline in Stats.
		Epoch:   time.Now(),
		Metrics: sv.metrics,
		Tracer:  sv.tracer,
	}
	if cfg.QueueCap > 0 {
		shardCfg.QueueCap = max(cfg.QueueCap/n, 1)
	}
	workerSplit := make([]int, n)
	inners := make([]*serve.Server, 0, n)
	closeBuilt := func() {
		for _, inner := range inners {
			inner.Close()
		}
	}
	for i := range workerSplit {
		workerSplit[i] = cfg.Workers / n
		if i < cfg.Workers%n {
			workerSplit[i]++
		}
		shardCfg.Workers = workerSplit[i]
		var seg *corpus.Corpus
		if cfg.Corpus != nil {
			seg = cfg.Corpus.segs[i]
		}
		sh, err := s.newShard(seg, factory, shardCfg)
		if err != nil {
			closeBuilt()
			return nil, err
		}
		sv.shards = append(sv.shards, sh)
		inners = append(inners, sh.inner)
	}
	if n > 1 {
		sv.router, err = shard.New(inners, shard.Config{
			Placement: placement,
			Steal:     cfg.ShardSteal,
			QueueCap:  shardCfg.QueueCap,
			Models:    len(s.Zoo.Models),
			Workers:   workerSplit,
		})
		if err != nil {
			closeBuilt()
			return nil, fmt.Errorf("ams: %w", err)
		}
	}
	return sv.finishTelemetry(cfg)
}

// finishTelemetry completes a constructed server's observability: it
// registers the live-state views (per-shard serve gauges, router
// counters, corpus durability metrics, predictor-cache stats) and —
// last, after every other fallible construction step — binds the HTTP
// exporter, so a bind failure tears the fully built server down
// cleanly. No-op without telemetry.
func (sv *Server) finishTelemetry(cfg ServeConfig) (*Server, error) {
	if sv.reg == nil {
		return sv, nil
	}
	for i, sh := range sv.shards {
		sh.inner.RegisterViews(sv.reg, obs.L("shard", strconv.Itoa(i)))
	}
	if sv.router != nil {
		sv.router.RegisterViews(sv.reg)
	}
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
	// Tracer health: ring evictions (traces lost to capacity) and span
	// drops inside published traces, so silent trace loss is itself
	// observable.
	sv.reg.CounterFunc("ams_trace_evicted_total",
		"Completed traces overwritten by ring wraparound",
		sv.tracer.Evicted)
	sv.reg.CounterFunc("ams_trace_dropped_total",
		"Spans dropped inside published traces (per-item cap)",
		sv.tracer.DroppedTotal)
	sv.reg.GaugeFunc("ams_trace_capacity",
		"Trace-ring capacity (ServeConfig.TraceCapacity)",
		func() float64 { return float64(sv.tracer.Capacity()) })
	if err := sv.buildSLOs(cfg); err != nil {
		_ = sv.Close()
		return nil, err
	}
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

// buildSLOs constructs the server's latency objectives — the implicit
// "deadline" objective (p99 within the scheduling deadline) plus every
// ServeConfig.SLOs spec — on the virtual clock, registers their
// ams_slo_* views, and threads them into the serve layer's completion
// hook. Runs before any item is admitted, so the slice is never written
// concurrently with itemDone reads.
func (sv *Server) buildSLOs(cfg ServeConfig) error {
	// Virtual seconds since server start: burn windows advance on the
	// simulated clock, so a 0.01× test run and a real-time run account
	// burn identically.
	vnow := func() float64 { return obs.SinceSeconds(sv.start) / sv.scale }
	var slos []*obs.SLO
	if cfg.DeadlineSec > 0 {
		slos = append(slos, obs.NewSLO("deadline", cfg.DeadlineSec, 0.99, vnow))
	}
	for _, spec := range cfg.SLOs {
		o, err := ParseSLO(spec)
		if err != nil {
			return fmt.Errorf("ams: %w", err)
		}
		slos = append(slos, obs.NewSLO(o.Name, o.ThresholdSec, o.Quantile, vnow))
	}
	for _, slo := range slos {
		slo.RegisterViews(sv.reg)
		slo := slo
		sv.reg.GaugeFunc("ams_slo_quantile_seconds",
			"Observed latency at the SLO's target quantile (lifetime histogram)",
			func() float64 { return sv.metrics.Latency.Quantile(slo.Target) },
			obs.L("slo", slo.Name))
	}
	sv.metrics.SLOs = slos
	return nil
}

// armFlightRecorder builds the anomaly flight recorder with the
// server's default trigger catalog and starts its poll loop. Triggers
// only read counters and burn gauges — nothing feeds back into
// scheduling.
func (sv *Server) armFlightRecorder(dir string) {
	fr := obs.NewFlightRecorder(dir, sv.reg, sv.tracer)
	// Shed storm: total sheds (server queues + router-level rejects)
	// growing faster than 5/s.
	fr.AddTrigger("shed-storm", obs.RateTrigger(func() int64 {
		n := sv.metrics.Shed.Value()
		if sv.router != nil {
			n += sv.router.RejectedTotal()
		}
		return n
	}, 5))
	// Deadline burn: any objective's fastest burn window at 8× budget —
	// the classic page-level fast-burn threshold.
	if len(sv.metrics.SLOs) > 0 {
		fr.AddTrigger("deadline-burn", obs.ThresholdTrigger(func() float64 {
			worst := 0.0
			for _, slo := range sv.metrics.SLOs {
				ws := slo.Windows()
				if len(ws) == 0 {
					continue
				}
				fast := ws[0]
				for _, w := range ws[1:] {
					if w < fast {
						fast = w
					}
				}
				if b := slo.BurnRate(fast); b > worst {
					worst = b
				}
			}
			return worst
		}, 8))
	}
	// Steal storm: sustained stealing means placement is fighting the
	// load instead of spreading it.
	if sv.router != nil {
		fr.AddTrigger("steal-storm", obs.RateTrigger(sv.router.StealsTotal, 20))
	}
	// Reserve stall: executions piling into the memory accountant's
	// wait queue faster than 50/s.
	fr.AddTrigger("reserve-stall", obs.RateTrigger(sv.metrics.ReserveWait.Count, 50))
	fr.RegisterViews(sv.reg)
	fr.Start()
	sv.flight = fr
}

// newShard builds one shard: a serve.Server over either the shard's
// corpus segment or a private on-demand executor.
func (s *System) newShard(seg *corpus.Corpus, factory service.PolicyFactory, cfg serve.Config) (*serverShard, error) {
	sh := &serverShard{
		sys:       s,
		ingested:  make(map[*oracle.ExternalItem]int),
		admitting: make(map[*oracle.ExternalItem]chan struct{}),
	}
	var ex oracle.Executor
	if seg != nil {
		sh.src = seg.Source(s.testStore)
		ex, cfg.Corpus = sh.src, sh.src
		// History already committed in the journal was delivered before:
		// reclaim its memos so a reopened corpus does not pin them.
		// ReplayCorpus recovers those results *before* building a server.
		seg.ReclaimCommitted()
	} else {
		sh.ingest = oracle.NewOnDemand(s.Zoo, s.testStore)
		ex = sh.ingest
	}
	var err error
	if sh.inner, err = serve.New(ex, factory, cfg); err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	return sh, nil
}

// resolve maps an item onto the server's executor index, ingesting
// external content. One external item occupies one executor slot no
// matter how often it is submitted or how many admissions fail.
//
// Without a corpus, ingested slots live as long as the server (results
// carry their outputs by value, but the item's memo itself is never
// reclaimed): a server on an unbounded external stream grows with its
// distinct accepted items. With a corpus, admission journals the scene
// first and committed items are evicted, bounding residency at
// CorpusOptions.MaxResident — blocking admissions wait for an eviction,
// non-blocking ones fail with ErrCorpusFull.
func (sh *serverShard) resolve(ctx context.Context, item Item, blocking bool) (int, error) {
	ext, err := sh.sys.checkItem(item)
	if err != nil {
		return 0, err
	}
	if ext == nil {
		return item.image, nil
	}
	for {
		sh.mu.Lock()
		if idx, ok := sh.ingested[ext]; ok {
			sh.mu.Unlock()
			return idx, nil
		}
		if sh.src == nil {
			idx := sh.ingest.Add(ext)
			sh.ingested[ext] = idx
			sh.mu.Unlock()
			return idx, nil
		}
		pending, inFlight := sh.admitting[ext]
		if !inFlight {
			pending = make(chan struct{})
			sh.admitting[ext] = pending
		}
		sh.mu.Unlock()
		if inFlight {
			// Another goroutine is admitting this same item. Submit must
			// not wait (the peer may be blocked on the watermark), so it
			// reports transient backpressure; SubmitWait waits for the
			// peer's outcome and re-checks the index map.
			if !blocking {
				return 0, ErrCorpusFull
			}
			select {
			case <-pending:
				continue
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		// This goroutine owns the admission; mu is NOT held across the
		// (possibly watermark-blocked) wait, so unrelated submissions —
		// and their contexts — stay live.
		var idx int
		if blocking {
			idx, err = sh.src.AdmitWait(ctx, *ext.Scene(), item.id)
		} else {
			idx, err = sh.src.TryAdmit(*ext.Scene(), item.id)
		}
		sh.mu.Lock()
		if err == nil {
			sh.ingested[ext] = idx
		}
		delete(sh.admitting, ext)
		close(pending)
		sh.mu.Unlock()
		return idx, err
	}
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
	weights := make(map[int]float64)
	if ext == nil {
		for l, v := range s.testStore.Truth(item.image).LabelValue {
			weights[l] = v
		}
	} else {
		scene := ext.Scene()
		add := func(l int) {
			if l >= 0 {
				weights[l] += 1
			}
		}
		add(scene.Place)
		for _, l := range scene.Objects {
			add(l)
		}
		add(scene.Emotion)
		add(scene.Gender)
		add(scene.Action)
		add(scene.Dog)
		for _, l := range scene.PoseKP {
			add(l)
		}
		for _, l := range scene.HandKP {
			add(l)
		}
	}
	return s.Zoo.SupportingModels(weights, 4)
}

// routedItem builds the router submission for an item. External items
// resolve lazily, on the shard chosen to execute them, so their corpus
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
		it.Resolve = func(sh int) (int, error) {
			//amsvet:allow ctxflow resolution runs at dispatch time on the executing shard, after the submitter's ctx has already returned
			return sv.shards[sh].resolve(context.Background(), item, true)
		}
	}
	return it, nil
}

// Submit admits one item without blocking; ErrQueueFull (server
// saturated) and ErrCorpusFull (resident watermark reached) both mean
// the caller should back off and retry. On a sharded server external
// items are journaled at dispatch time, on the shard that executes
// them, so a corpus at its watermark surfaces as queue backpressure
// (the shard's dispatcher waits for an eviction) rather than as
// ErrCorpusFull here.
func (sv *Server) Submit(item Item) (*ServeTicket, error) {
	//amsvet:allow ctxflow Submit is the non-blocking API: resolve uses TryAdmit, so this ctx is never waited on
	return sv.submit(context.Background(), item, false, -1, 0)
}

// SubmitWait admits one item, blocking under backpressure — a full
// queue, or a corpus at its resident watermark — until space frees or
// the context is cancelled (returning ctx.Err()).
func (sv *Server) SubmitWait(ctx context.Context, item Item) (*ServeTicket, error) {
	return sv.submit(ctx, item, true, -1, 0)
}

// submit is the one admission path. seg < 0 is a fresh submission, to be
// resolved to an executor index (at dispatch on the router's executing
// shard; here on the only shard). seg >= 0 is ReplayCorpus re-submitting
// an item that already holds slot idx in that corpus segment: a sharded
// server pins it to the segment's shard, so its relabeling journals into
// the segment that already knows it. wait picks SubmitWait over Submit.
func (sv *Server) submit(ctx context.Context, item Item, wait bool, seg, idx int) (*ServeTicket, error) {
	var (
		tk  *serve.Ticket
		err error
	)
	if sv.router != nil {
		it := shard.Item{Tag: item.id, Index: idx, Pin: seg + 1}
		if seg < 0 {
			it, err = sv.routedItem(item)
		}
		switch {
		case err != nil:
		case wait:
			tk, err = sv.router.SubmitWait(ctx, it)
		default:
			tk, err = sv.router.Submit(it)
		}
	} else {
		sh := sv.shards[0]
		if seg < 0 {
			idx, err = sh.resolve(ctx, item, wait)
		}
		switch {
		case err != nil:
		case wait:
			tk, err = sh.inner.SubmitWait(ctx, idx, item.id)
		default:
			tk, err = sh.inner.Submit(idx, item.id)
		}
	}
	if err != nil {
		return nil, err
	}
	return &ServeTicket{sys: sv.sys, item: item, tk: tk}, nil
}

// Checkpoint compacts the server's corpus immediately: the previous
// snapshot, the journal, and the in-memory state merge into one
// snapshot blob and the journal restarts empty. It fails when the
// server was built without ServeConfig.Corpus.
func (sv *Server) Checkpoint() error {
	if sv.corpus == nil {
		return fmt.Errorf("ams: server has no corpus to checkpoint")
	}
	return sv.corpus.Snapshot()
}

// Results subscribes to the server's completion stream: every item
// finished after the call is delivered in completion order, without the
// caller holding tickets. The channel closes after Close once all
// results are drained. Repeated calls share one subscription. Subscribe
// before submitting — earlier completions are not replayed. A slow or
// abandoned consumer never blocks labeling or Close: results buffer
// internally up to ServeConfig.StatsWindow undelivered entries, beyond
// which the oldest are dropped (ServeStats.ResultsDropped counts them).
// Like time.Tick, a subscription that is never drained holds its
// bounded buffers and forwarding goroutines (two per shard) until the
// process exits; a consumer should read until the channel closes.
//
// Every delivered result was committed first — commit-of-result is the
// item's lifetime boundary: the result's labels and outputs are captured
// by value at commit, so a lagging consumer still reads intact results
// after the corpus has evicted (or a journal has compacted away) the
// items they came from.
func (sv *Server) Results() <-chan *Result {
	sv.resOnce.Do(func() {
		sv.res = make(chan *Result)
		var pumps sync.WaitGroup
		for _, sh := range sv.shards {
			pumps.Add(1)
			go func(inner <-chan serve.ItemResult) {
				defer pumps.Done()
				for ir := range inner {
					item := Item{id: ir.Tag, image: ir.Image, valid: true}
					if ir.Image >= sv.sys.testStore.NumScenes() {
						// Ingested item: no test-split index to report.
						item.image = -1
					}
					sv.res <- sv.sys.serveResult(item, ir)
				}
			}(sh.inner.Results())
		}
		go func() {
			pumps.Wait()
			close(sv.res)
		}()
	})
	return sv.res
}

// Stats summarizes the items completed so far. On a sharded server the
// top-level fields merge every shard's completion records on the shared
// timeline and PerShard breaks out each shard.
func (sv *Server) Stats() ServeStats {
	var st ServeStats
	if sv.router != nil {
		rst := sv.router.Stats()
		st = fromRunStats(rst.Merged)
		st.Steals = rst.Steals
		st.PerShard = rst.PerShard
	} else {
		st = fromRunStats(sv.shards[0].inner.Stats())
	}
	st.Shards = len(sv.shards)
	if sv.cache != nil {
		st.PredCacheHits, st.PredCacheMisses, st.PredCacheEntries = sv.cache.Stats()
	}
	st.Telemetry = sv.reg.Snapshot()
	return st
}

// Close stops admission, drains the queue (on a sharded server, every
// shard's pending queue through its workers), waits for in-flight
// items, and — with ServeConfig.TraceOut — dumps the final span-trace
// ring as Chrome trace-event JSON.
func (sv *Server) Close() error {
	// The exporter goes first so no scrape races the teardown; Close
	// waits for its serve goroutine, keeping leak checks clean. The
	// flight recorder follows (its final poll catches an anomaly still
	// live at shutdown), then the shards drain.
	_ = sv.exporter.Close()
	_ = sv.flight.Close()
	var err error
	if sv.router != nil {
		err = sv.router.Close()
	} else {
		err = sv.shards[0].inner.Close()
	}
	if sv.traceOut != "" && sv.tracer != nil {
		// After the drain, so the dump holds every completed trace.
		sv.traceOnce.Do(func() {
			if werr := sv.dumpChromeTrace(); werr != nil && err == nil {
				err = fmt.Errorf("ams: trace-out: %w", werr)
			}
		})
	}
	return err
}

// dumpChromeTrace writes the whole trace ring to the TraceOut path.
func (sv *Server) dumpChromeTrace() error {
	f, err := os.Create(sv.traceOut)
	if err != nil {
		return err
	}
	if err := sv.tracer.WriteChrome(f, sv.tracer.Capacity(), ""); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTrace exports up to n recent span traces (all resident
// traces when n <= 0) as Chrome trace-event / Perfetto JSON — the same
// payload as /tracez?format=chrome and ServeConfig.TraceOut. A server
// without telemetry writes an empty trace document.
func (sv *Server) WriteChromeTrace(w io.Writer, n int) error {
	if n <= 0 {
		n = sv.tracer.Capacity()
		if n == 0 {
			n = 1
		}
	}
	return sv.tracer.WriteChrome(w, n, "")
}

// Serve replays a Poisson arrival trace through a fresh server, pulling
// items from src — any SceneSource; nil means the built-in test split,
// cycled — and returns its statistics: the real-time counterpart of
// SimulateServe. The replay ends after trace.Items arrivals or when the
// source is exhausted; cancelling ctx stops admission early and returns
// the statistics of the items completed, alongside ctx.Err().
func (s *System) Serve(ctx context.Context, agent *Agent, cfg ServeConfig, trace ServeTrace, src SceneSource) (ServeStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if trace.ArrivalRateHz <= 0 || trace.Items <= 0 {
		return ServeStats{}, fmt.Errorf("ams: serve needs a positive arrival rate and item count, got %v Hz / %d items",
			trace.ArrivalRateHz, trace.Items)
	}
	if src == nil {
		src = s.TestSplitSource()
	}
	if cfg.StatsWindow == 0 {
		cfg.StatsWindow = trace.Items // summarize the whole trace
	}
	srv, err := s.NewServer(agent, cfg)
	if err != nil {
		return ServeStats{}, err
	}
	scale := cfg.TimeScale
	if scale == 0 {
		scale = 1.0 // the server's own default; keep arrival pacing on it
	}
	// The arrival process paces itself on a wheel of its own, like the
	// executions it feeds: a raw runtime timer rounds the sub-millisecond
	// gaps of a scaled or kilohertz trace up to the millisecond.
	pace := vtime.NewWheel()
	defer pace.Stop()
	due := make(chan struct{}, 1) // one arrival is waited for at a time
	arrive := func() { due <- struct{}{} }
	start := time.Now()
	arrivals := service.Arrivals(trace.Items, trace.ArrivalRateHz, trace.Seed)
	var submitErr error
	for _, at := range arrivals {
		item, ok := src.Next()
		if !ok {
			break // source exhausted: serve what arrived
		}
		if d := time.Duration(at*scale*float64(time.Second)) - time.Since(start); d > 0 {
			pace.AfterFunc(d, arrive)
			select {
			case <-due:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			submitErr = ctx.Err()
			break
		}
		if trace.OpenLoop {
			// Open loop: shed on backpressure, never block the arrival
			// process. Sheds are already counted by the admission path.
			if _, err := srv.Submit(item); err != nil &&
				err != ErrQueueFull && err != ErrCorpusFull {
				submitErr = err
				break
			}
			continue
		}
		if _, err := srv.SubmitWait(ctx, item); err != nil {
			submitErr = err
			break
		}
	}
	if err := srv.Close(); err != nil && submitErr == nil {
		submitErr = err
	}
	return srv.Stats(), submitErr
}

// SimulateServe runs the virtual-time discrete-event simulation of the
// same workload — same Config and policy wiring as Serve, no real
// concurrency or sleeping — so the two can be compared side by side.
// Each item runs in the mode the configuration selects (Algorithm 2's
// per-item parallel execution for PolicyAlgorithm2, serial otherwise)
// under the memory budget of one shard. The simulation replays the
// built-in test split (virtual time cannot consume a live external
// source) and models an unbounded FIFO queue with no contention between
// items: every item sees its shard's whole memory budget, and the queue
// bound and batching do not apply.
func (s *System) SimulateServe(agent *Agent, cfg ServeConfig, trace ServeTrace) (ServeStats, error) {
	factory, policy, _, err := s.serveFactory(agent, cfg)
	if err != nil {
		return ServeStats{}, err
	}
	svcCfg := service.Config{
		Workers:        cfg.Workers,
		ArrivalRateHz:  trace.ArrivalRateHz,
		DeadlineSec:    cfg.DeadlineSec,
		Items:          trace.Items,
		Seed:           trace.Seed,
		MemoryBudgetMB: cfg.MemoryGB * 1024 / float64(max(cfg.Shards, 1)),
		ItemParallel:   policy.parallel,
	}
	if svcCfg.Workers <= 0 {
		return ServeStats{}, fmt.Errorf("ams: need at least one worker, got %d", svcCfg.Workers)
	}
	if svcCfg.ArrivalRateHz <= 0 || svcCfg.DeadlineSec <= 0 || svcCfg.Items <= 0 || svcCfg.MemoryBudgetMB < 0 {
		return ServeStats{}, fmt.Errorf("ams: invalid serve trace %+v", svcCfg)
	}
	st := service.Run(s.testStore, factory, svcCfg)
	return fromRunStats(serve.RunStats{Stats: st, Completed: int64(st.Items)}), nil
}

// serveFactory resolves cfg.Policy (defaulting to Algorithm 1, the
// server's historical behavior) and builds the per-worker policy
// factory: each worker gets a private instantiation — and through it
// its own fork of the agent, as in LabelBatch.
func (s *System) serveFactory(agent *Agent, cfg ServeConfig) (service.PolicyFactory, Policy, *sched.SharedCache, error) {
	policy := cfg.Policy
	if !policy.valid() {
		policy = PolicyAlgorithm1
	}
	if policy.parallel && cfg.MemoryGB <= 0 {
		return nil, Policy{}, nil, fmt.Errorf("ams: policy %q serves items in parallel and requires a memory budget", policy.Name())
	}
	// Validate up front so configuration errors (e.g. a missing agent)
	// surface before any worker starts.
	if err := policy.check(agent); err != nil {
		return nil, Policy{}, nil, err
	}
	var cache *sched.SharedCache
	if cfg.PredictorCache {
		cache = sched.NewSharedCache(0)
	}
	return func(int) sim.Policy { return policy.instantiate(s, agent, cache) }, policy, cache, nil
}

func fromRunStats(rs serve.RunStats) ServeStats {
	return ServeStats{
		Items:           rs.Items,
		Completed:       rs.Completed,
		AvgQueueWaitSec: rs.AvgQueueWaitSec,
		AvgLatencySec:   rs.AvgLatencySec,
		P95LatencySec:   rs.P95LatencySec,
		AvgRecall:       rs.AvgRecall,
		RecallItems:     rs.RecallItems,
		ThroughputHz:    rs.ThroughputHz,
		Utilization:     rs.Utilization,
		HorizonSec:      rs.HorizonSec,
		PeakMemMB:       rs.PeakMemMB,
		MemWaits:        rs.MemWaits,
		Rejected:        rs.Rejected,
		ResultsDropped:  rs.ResultsDropped,
		Batches:         rs.Batching.Batches,
		BatchedRequests: rs.Batching.Requests,
		LargestBatch:    rs.Batching.LargestBatch,
		BatchSavedGPUMS: rs.Batching.SavedGPUMS,
		BatchSavedMemMB: rs.Batching.SavedMemMB,
		AvgSelectSec:    rs.AvgSelectSec,
	}
}
