// Command amsserve runs the real concurrent labeling server against a
// Poisson arrival trace and prints the same statistics shape as the
// virtual-time service simulation, so the two can be compared side by
// side (-compare prints both).
//
// The server executes items with a pool of worker goroutines, all
// reading one frozen copy of the agent's network, and enforces a global
// GPU-memory budget (-memory) shared by all workers via the Algorithm-2
// accountant. Model executions sleep their nominal duration scaled by
// -timescale; the default 0.05 replays the trace twenty times faster
// than production pacing while keeping every scheduling decision
// identical. Note that the scheduler's real CPU overhead (the agent's
// Q-network forward passes — the paper's Table III selection overhead)
// is NOT scaled, so very small timescales magnify it relative to model
// time and inflate the reported latencies.
//
// The per-worker scheduling policy is pluggable (-policy): algorithm1
// (the default serial cost-aware Q-greedy), qgreedy, random, or
// algorithm2, which requires -memory and switches the server into
// per-item parallel mode — one item's models run concurrently across
// the pool under the shared accountant, matching sim.RunParallel
// semantics. The policy picks the mode, as in amslabel: under the other
// three, -memory only bounds which models fit, one at a time.
//
// -batch enables cross-item dynamic batching: same-model demand from
// the whole pool coalesces into batched executions (sub-linear GPU
// cost, one footprint reservation per batch instead of one per item),
// raising throughput on hot-model memory-bound traces. Without -memory
// no schedule or recall changes; with it, a serial policy sees the whole
// budget and each batch waits for its memory in the accountant's
// ordered line, sealing the moment it is granted. -batch-hold bounds how
// long a lone request waits for batch-mates where no batch holds memory
// (no -memory, or algorithm2); -pred-cache shares one Q-prediction cache
// across all workers and items.
//
// Ingestion can be made durable with -journal: every admitted external
// item, each memoized model output, and each completed schedule is
// appended to a write-ahead journal, committed items are evicted from
// memory (bounded by -max-resident), and -snapshot-every compacts the
// journal periodically. -sync-every/-sync-ms add group-commit fsync
// (power-loss durability without per-record flushes). A run killed at
// an arbitrary point is recovered with -replay: committed items are
// re-served bit-identically from their persisted memos without
// re-running any model, and uncommitted items are relabeled, re-running
// only what never reached the journal.
//
// -shards splits the server into independent shards — each one a worker
// pool with its own memory accountant and (with -journal, then a
// directory of per-shard segments) its own journal — behind a router
// that places items by -placement (hash, least, or affinity) with
// optional work-stealing (-steal). Replaying a segmented journal
// recovers all segments in parallel and prints one line per segment.
//
// Usage:
//
//	amsserve -workers 4 -rate 3 -items 200 -deadline 0.5
//	amsserve -workers 4 -memory 8 -compare
//	amsserve -workers 4 -memory 8 -policy algorithm2
//	amsserve -agent agent.gob -timescale 1 -rate 1 -items 30
//	amsserve -external -journal corpus.wal -max-resident 64
//	amsserve -journal corpus.wal -replay
//	amsserve -external -shards 4 -placement affinity -steal -journal corpus.d
//	amsserve -journal corpus.d -replay
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ams"
)

func main() {
	var (
		dataset   = flag.String("dataset", ams.DatasetMirFlickr, "dataset profile")
		images    = flag.Int("images", 500, "images to generate")
		seed      = flag.Uint64("seed", 1, "determinism seed")
		agentPath = flag.String("agent", "", "trained agent file (trains a quick agent when empty)")
		epochs    = flag.Int("epochs", 8, "epochs for the quick agent when -agent is empty")

		workers    = flag.Int("workers", 4, "concurrent labeling workers")
		deadline   = flag.Float64("deadline", 0.5, "per-item deadline in seconds")
		memory     = flag.Float64("memory", 0, "global GPU memory budget in GB shared by all workers (0 = unlimited); bounds which models fit, runs items in parallel only under algorithm2")
		queueCap   = flag.Int("queue", 0, "admission queue bound (0 = 2*workers)")
		timescale  = flag.Float64("timescale", 0.05, "real seconds per simulated second of model time")
		policyName = flag.String("policy", "algorithm1", "scheduling policy: algorithm1, algorithm2 (needs -memory; the one per-item parallel policy), qgreedy, random")
		batchSize  = flag.Int("batch", 0, "cross-item batching: coalesce up to this many same-model requests per execution (0 = off, 1 = batching machinery without coalescing)")
		batchHold  = flag.Float64("batch-hold", 0, "max simulated ms a lone request waits for batch-mates when no batch holds memory: no -memory, or algorithm2 (0 = server default)")
		predCache  = flag.Bool("pred-cache", false, "share one bounded Q-prediction cache across all workers and items")

		shards    = flag.Int("shards", 0, "split the server into this many shards (own worker pool, memory accountant, and journal segment each; 0 = one shard)")
		placement = flag.String("placement", "hash", "shard placement policy: hash, least, or affinity")
		steal     = flag.Bool("steal", false, "let an idle shard steal queued items from a loaded sibling")

		metricsAddr = flag.String("metrics", "", "serve live telemetry over HTTP at this host:port while the trace runs: /metrics (Prometheus), /statusz (JSON), /tracez (decision traces; ?format=chrome for Perfetto), /debug/pprof")
		traceOut    = flag.String("trace-out", "", "write the span-trace ring as Chrome trace-event JSON (Perfetto-loadable) to this file at shutdown; implies telemetry")
		traceCap    = flag.Int("trace-cap", 0, "completed item traces the tracer ring retains (0 = default 256)")
		sloSpecs    = flag.String("slo", "", "comma-separated latency objectives, e.g. \"p99<250ms,slow:p95<1s\" (a deadline p99 objective is always tracked); burn rates export as ams_slo_* series")
		flightDir   = flag.String("flight-dir", "", "arm the anomaly flight recorder: on shed storms, deadline burn, steal storms, or reserve stalls, dump pre-anomaly traces+metrics bundles into this directory")

		rate     = flag.Int("rate", 4, "mean arrivals per simulated second (Poisson)")
		items    = flag.Int("items", 200, "arrival trace length")
		openLoop = flag.Bool("open-loop", false, "submit without blocking: arrivals keep Poisson pacing and excess load is shed (exercises overload / the flight recorder) instead of applying backpressure")
		compare  = flag.Bool("compare", false, "also run the virtual-time simulation of the same workload")
		external = flag.Bool("external", false, "serve freshly generated external items (no precomputed ground truth) instead of cycling the held-out split")

		journalPath = flag.String("journal", "", "write-ahead journal path: ingested items become durable, evictable, and crash-recoverable")
		maxResident = flag.Int("max-resident", 0, "resident-item watermark: admissions block once this many ingested items hold memory (0 = unbounded)")
		snapEvery   = flag.Int("snapshot-every", 0, "compact the journal in place every N completed items (0 = never)")
		syncEvery   = flag.Int("sync-every", 0, "group-commit fsync: sync the journal once this many records accumulate (0 = sync only on close/snapshot)")
		syncMS      = flag.Float64("sync-ms", 0, "group-commit fsync: sync the journal at least every this many milliseconds (0 = off)")
		replay      = flag.Bool("replay", false, "recover the -journal corpus from a previous (possibly killed) run and exit")
	)
	flag.Parse()
	if (*replay || *maxResident > 0 || *snapEvery > 0 || *syncEvery > 0 || *syncMS > 0) && *journalPath == "" {
		log.Fatal("amsserve: -replay, -max-resident, -snapshot-every and -sync-* require -journal")
	}
	// Everything checkable from the flags alone is checked before the
	// quick agent trains, so a typo fails at once.
	policy, err := ams.PolicyByName(*policyName)
	if err != nil {
		log.Fatalf("amsserve: %v", err)
	}
	var slos []string
	if *sloSpecs != "" {
		slos = strings.Split(*sloSpecs, ",")
	}
	for _, spec := range slos {
		if _, err := ams.ParseSLO(spec); err != nil {
			log.Fatalf("amsserve: %v", err)
		}
	}

	sys, err := ams.New(ams.Config{Dataset: *dataset, NumImages: *images, Seed: *seed})
	if err != nil {
		log.Fatalf("amsserve: %v", err)
	}
	var agent *ams.Agent
	if *agentPath != "" {
		agent, err = ams.LoadAgent(*agentPath)
		if err != nil {
			log.Fatalf("amsserve: %v", err)
		}
		fmt.Printf("loaded %s agent trained on %s\n", agent.Algorithm(), agent.TrainedOn())
	} else {
		fmt.Printf("training a quick DuelingDQN agent on %s (%d epochs)...\n", *dataset, *epochs)
		agent, err = sys.TrainAgent(ams.TrainOptions{
			Algorithm: ams.DuelingDQN, Epochs: *epochs, Hidden: []int{96}, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("amsserve: %v", err)
		}
	}

	cfg := ams.ServeConfig{
		Workers:        *workers,
		Policy:         policy.WithSeed(*seed),
		DeadlineSec:    *deadline,
		MemoryGB:       *memory,
		QueueCap:       *queueCap,
		TimeScale:      *timescale,
		BatchSize:      *batchSize,
		BatchHoldMS:    *batchHold,
		PredictorCache: *predCache,
		Shards:         *shards,
		ShardPlacement: *placement,
		ShardSteal:     *steal,
		MetricsAddr:    *metricsAddr,
		Telemetry:      *traceOut != "",
		TraceCapacity:  *traceCap,
		FlightDir:      *flightDir,
		SLOs:           slos,
	}
	trace := ams.ServeTrace{ArrivalRateHz: float64(*rate), Items: *items, Seed: *seed, OpenLoop: *openLoop}

	var corpus *ams.Corpus
	if *journalPath != "" {
		copts := ams.CorpusOptions{
			MaxResident:   *maxResident,
			SnapshotEvery: *snapEvery,
			SyncEveryN:    *syncEvery,
			SyncEveryMS:   *syncMS,
		}
		// Sharded serving journals one segment per shard under a
		// directory; replaying a directory reopens however many segments
		// it holds (segment count from its manifest). A plain-file
		// journal stays on the single-segment opener.
		if *shards > 1 || (*replay && isDir(*journalPath)) {
			corpus, err = sys.OpenCorpusDir(*journalPath, *shards, copts)
		} else {
			corpus, err = sys.OpenCorpus(*journalPath, copts)
		}
		if err != nil {
			log.Fatalf("amsserve: %v", err)
		}
		cfg.Corpus = corpus
	}

	if *replay {
		rep, err := sys.ReplayCorpus(context.Background(), agent, cfg, corpus)
		if rep != nil {
			for _, sr := range rep.Segments {
				fmt.Printf("segment %d: recovered %d committed, relabeled %d uncommitted\n",
					sr.Segment, sr.Recovered, sr.Relabeled)
			}
			fmt.Printf("\nrecovered %d committed items (bit-identical, no model re-runs), relabeled %d uncommitted items across %d segments\n",
				len(rep.Recovered), len(rep.Relabeled), len(rep.Segments))
			for i, r := range rep.Recovered {
				if i >= 3 {
					fmt.Printf("  ...\n")
					break
				}
				fmt.Printf("  recovered %q: %d models, %d labels, %.2fs schedule\n",
					r.ItemID, len(r.ModelsRun), len(r.Labels), r.TimeSec)
			}
		}
		if err != nil {
			log.Fatalf("amsserve: replay: %v", err)
		}
		corpus.Stats().WriteSummary(os.Stdout)
		if err := corpus.Close(); err != nil {
			log.Fatalf("amsserve: %v", err)
		}
		return
	}

	// The item source: the built-in test split (cycled) by default, or a
	// stream of externally generated scenes fed through the same door.
	var src ams.SceneSource
	kind := "test split"
	if *external {
		src = ams.ItemSource(sys.GenerateItems(*items, *seed)...)
		kind = "external items"
	}

	fmt.Printf("\nserving %d %s at %d/s with %d workers (policy %s, deadline %.2fs, mem %.1f GB, timescale %g)\n",
		*items, kind, *rate, *workers, policy.Name(), *deadline, *memory, *timescale)
	if *metricsAddr != "" {
		fmt.Printf("telemetry: http://%s/metrics /statusz /tracez /debug/pprof\n", *metricsAddr)
	}
	cfg.StatsWindow = max(*items, 0) // summarize the whole trace
	srv, err := sys.NewServer(agent, cfg)
	if err != nil {
		log.Fatalf("amsserve: %v", err)
	}
	err = srv.Replay(context.Background(), trace, src)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err == nil && *traceOut != "" {
		// After Close, so the file holds every completed trace.
		err = writeTrace(srv, *traceOut)
	}
	if err != nil {
		log.Fatalf("amsserve: %v", err)
	}
	srv.Stats().WriteSummary(os.Stdout, "real server", *memory*1024)
	// With telemetry on (-metrics, -trace-out, -slo or -flight-dir): the
	// slowest item stage by stage, then where the whole run's time went.
	if tr, ok := srv.SlowestTrace(); ok {
		fmt.Println()
		tr.WriteCriticalPath(os.Stdout, "slowest item")
		fmt.Println()
		srv.SumCriticalPaths().Write(os.Stdout, "critical path, every resident trace")
	}
	if *traceOut != "" {
		fmt.Printf("\nspan trace written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if *flightDir != "" {
		fmt.Printf("flight recorder armed at %s (bundles written on anomaly triggers)\n", *flightDir)
	}
	if corpus != nil {
		corpus.Stats().WriteSummary(os.Stdout)
		if err := corpus.Close(); err != nil {
			log.Fatalf("amsserve: %v", err)
		}
	}

	if *compare {
		sim, err := sys.SimulateServe(agent, cfg, trace)
		if err != nil {
			log.Fatalf("amsserve: %v", err)
		}
		fmt.Println()
		sim.WriteSummary(os.Stdout, "virtual-time sim", 0)
	}
}

// writeTrace writes the server's whole span-trace ring to path as Chrome
// trace-event JSON.
func writeTrace(srv *ams.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.WriteChromeTrace(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// isDir reports whether path exists and is a directory — a segmented
// journal from a sharded run.
func isDir(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

// The summary itself renders through the shared
// ams.ServeStats.WriteSummary / ams.CorpusStats.WriteSummary, so this
// binary and examples/labelserver report identical runs identically.
