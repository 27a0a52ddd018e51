package main

import (
	"encoding/json"

	"ams"
)

// This file is the one table the benchmark is generated from: the
// workloads with their sizes, and every metric with its unit, direction,
// bound, layer and the end-to-end metric it is expected to move.
// BENCHMARK.json (manifest), the printed report, the README tables
// (-describe) and -compare all read it; bench_test.go asserts the
// committed BENCHMARK.json equals what this table generates.

// systemSeed fixes the dataset and the trained agent. They are the
// system under test, not its input: ten runs at ten workload seeds must
// measure one program, or the spread across seeds is the spread between
// ten different agents (±20 % items/s when the agent was seeded from
// -seed). -seed drives the item order and the generated scenes only.
const systemSeed = 1

// defaultSeed is the workload seed when -seed is not given.
const defaultSeed = 1

// System shape shared by every workload. Epochs is scaled down from the
// two the issue sized (training is most of set-up and set-up runs three
// times per run); Hidden keeps the paper's Q-network width, which is
// what sets the select cost.
const (
	systemImages = 400
	trainEpochs  = 1
	hiddenWidth  = 256
)

// A workload is one serving configuration plus its closed-loop load.
type workload struct {
	Name string
	Why  string
	// Items is the size of one timed repetition and Window the number of
	// items the submitter keeps outstanding. Items is a multiple of the
	// 320-item test split so every test item is served equally often and
	// per-item counts compare across seeds and commits.
	Items  int
	Window int
	Serve  ams.ServeConfig
	// Corpus, when set, journals ingestion into a fresh directory per
	// repetition with one segment per shard, and three of every four
	// items are fresh GenerateItems scenes.
	Corpus *ams.CorpusOptions
	// Parity runs the pre-timing pass: every test item once at one
	// worker must equal System.LabelWith bit for bit. Exact additionally
	// holds the timed results to the references (Algorithm 2 at two
	// workers legitimately diverges under contention, so only the serial
	// floor is exact).
	Parity bool
	Exact  bool
}

var workloads = []workload{
	{
		Name: "floor_serial",
		Why: "Overhead floor of Algorithm 1: models sleep 20-500 ns, so the run is select (sched, nn, tensor), " +
			"serve dispatch, vtime and oracle.Tracker; a select-path gain shows here first.",
		Items: 19200, Window: 8,
		Serve: ams.ServeConfig{Policy: ams.PolicyAlgorithm1, Workers: 2, DeadlineSec: 0.5,
			MemoryGB: 16, TimeScale: 1e-6},
		Parity: true, Exact: true,
	},
	{
		Name: "floor_parallel",
		Why: "Same layers under Algorithm 2: the packer re-asks at every launch, launches overlap on the wheel, " +
			"two items contend on one 8 GB accountant; a change that helps Alg. 1 and hurts Alg. 2 shows here.",
		Items: 9600, Window: 8,
		Serve: ams.ServeConfig{Policy: ams.PolicyAlgorithm2, Workers: 2, DeadlineSec: 0.5,
			MemoryGB: 8, TimeScale: 1e-6},
		Parity: true,
	},
	{
		Name: "hot_batched",
		Why: "Memory-bound hot-model trace, sleep-bound (CPU about 10 % busy): throughput is set by batch lanes, " +
			"accountant waits and timer accuracy; a select-path change predicts no move here.",
		Items: 640, Window: 64,
		Serve: ams.ServeConfig{Policy: ams.PolicyAlgorithm1, Workers: 8, DeadlineSec: 0.2,
			MemoryGB: 1, BatchSize: 8, BatchHoldMS: 600, TimeScale: 1e-3},
	},
	{
		Name: "ingest_durable",
		Why: "Everything an operator turns on: 2 shards (affinity, stealing), journaled corpus with group-commit fsync, " +
			"shared predictor cache, telemetry; the only workload where corpus, shard, zoo and obs do work.",
		Items: 5120, Window: 16,
		Serve: ams.ServeConfig{Policy: ams.PolicyAlgorithm1, Workers: 4, Shards: 2, ShardPlacement: "affinity",
			ShardSteal: true, PredictorCache: true, Telemetry: true, SLOs: []string{"p99<400ms"},
			DeadlineSec: 0.4, MemoryGB: 10, TimeScale: 1e-6},
		// SnapshotEvery stays 0: with it on, each compaction stalls every
		// worker and the snapshot count swings throughput; compaction is
		// measured once per repetition as corpus.checkpoint_ms.
		Corpus: &ams.CorpusOptions{MaxResident: 128, SyncEveryN: 64, SyncEveryMS: 5},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	higher = "higher"
	lower  = "lower"
)

// A metric is one reported number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression. Moves names the end-to-end
// metric and workload a layer metric is expected to move.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd is what a user of the server sees. Failures are not a metric
// here: the contract wants metrics that are never 0, so they are the
// result line's attempted/failed counts, and any failure is fatal.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "items_per_s", Unit: "items/s", Better: higher, Bound: 0.25},
	{Name: "cpu_ms_per_item", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "allocs_per_item", Unit: "allocs", Better: lower, Bound: 0.05},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "recall", Unit: "fraction", Better: higher, Bound: 0.01},
}

const (
	floors   = "floor_serial, floor_parallel"
	onHot    = "hot_batched"
	onIngest = "ingest_durable"
)

var perLayer = []metric{
	{Name: "sched.select_us_per_item", Unit: "us", Better: lower, Layer: "sched",
		Moves: "items_per_s, cpu_ms_per_item on " + floors + "; only cpu_ms_per_item on " + onHot},
	{Name: "sched.next_us_per_call", Unit: "us", Better: lower, Layer: "sched",
		Moves: "items_per_s, cpu_ms_per_item on " + floors},
	{Name: "sched.selects_per_item", Unit: "count", Better: lower, Layer: "sched",
		Moves: "items_per_s on floor_parallel (re-asks)"},
	{Name: "sched.cache_hit_ratio", Unit: "ratio", Better: higher, Layer: "sched",
		Moves: "cpu_ms_per_item on " + onIngest + " (cache off elsewhere)"},
	{Name: "nn.forward_us_per_call", Unit: "us", Better: lower, Layer: "nn",
		Moves: "through sched.*"},
	{Name: "nn.forward_allocs_per_call", Unit: "allocs", Better: lower, Layer: "nn",
		Moves: "allocs_per_item on " + floors},
	{Name: "oracle.tracker_us_per_item", Unit: "us", Better: lower, Layer: "oracle",
		Moves: "cpu_ms_per_item, allocs_per_item on " + floors},
	{Name: "serve.dispatch_us_per_item", Unit: "us", Better: lower, Layer: "serve",
		Moves: "items_per_s on " + floors + "; cpu_ms_per_item everywhere"},
	{Name: "serve.admit_wait_us_per_item", Unit: "us", Better: lower, Layer: "serve",
		Moves: "latency_p50_ms on all; rises before items_per_s flattens"},
	{Name: "serve.drain_ms", Unit: "ms", Better: lower, Layer: "serve",
		Moves: "latency_p50_ms on all"},
	{Name: "serve.utilization", Unit: "ratio", Better: higher, Layer: "serve",
		Moves: "rises before items_per_s flattens"},
	{Name: "serve.mem_waits_per_item", Unit: "count", Better: lower, Layer: "serve",
		Moves: "items_per_s, load.latency_p99_ms on " + onHot + ", floor_parallel; 0 on floor_serial"},
	{Name: "serve.peak_mem_mb", Unit: "MB", Better: lower, Layer: "serve",
		Moves: "items_per_s on " + onHot + ", floor_parallel"},
	{Name: "vtime.sleep_overshoot_us", Unit: "us", Better: lower, Layer: "vtime",
		Moves: "items_per_s on " + onHot + " (k sleeps per item add directly)"},
	{Name: "vtime.timer_us_per_call", Unit: "us", Better: lower, Layer: "vtime",
		Moves: "items_per_s on " + floors},
	{Name: "batch.batches_per_item", Unit: "count", Better: lower, Layer: "batch",
		Moves: "items_per_s on " + onHot + " only (0 elsewhere)"},
	{Name: "batch.mean_size", Unit: "size", Better: higher, Layer: "batch",
		Moves: "items_per_s on " + onHot + " only"},
	{Name: "batch.largest", Unit: "size", Better: higher, Layer: "batch",
		Moves: "items_per_s on " + onHot + " only"},
	{Name: "batch.saved_gpu_ms_per_item", Unit: "ms", Better: higher, Layer: "batch",
		Moves: "items_per_s on " + onHot + " only"},
	{Name: "batch.enqueue_us_per_req", Unit: "us", Better: lower, Layer: "batch",
		Moves: "cpu_ms_per_item on " + onHot + " only"},
	{Name: "shard.steals_per_item", Unit: "count", Better: lower, Layer: "shard",
		Moves: "items_per_s on " + onIngest + " only"},
	{Name: "shard.imbalance", Unit: "ratio", Better: lower, Layer: "shard",
		Moves: "items_per_s, load.latency_p99_ms on " + onIngest + " only"},
	{Name: "shard.route_us_per_item", Unit: "us", Better: lower, Layer: "shard",
		Moves: "items_per_s on " + onIngest + " only"},
	{Name: "shard.full_probes_per_item", Unit: "count", Better: lower, Layer: "shard",
		Moves: "cpu_ms_per_item on " + onIngest + " only"},
	{Name: "corpus.journal_bytes_per_item", Unit: "B", Better: lower, Layer: "corpus",
		Moves: "items_per_s on " + onIngest + " only"},
	{Name: "corpus.records_per_item", Unit: "count", Better: lower, Layer: "corpus",
		Moves: "items_per_s, allocs_per_item on " + onIngest + " only"},
	{Name: "corpus.syncs_per_kitem", Unit: "count", Better: lower, Layer: "corpus",
		Moves: "items_per_s on " + onIngest + " only"},
	{Name: "corpus.append_us_per_item", Unit: "us", Better: lower, Layer: "corpus",
		Moves: "items_per_s, cpu_ms_per_item, allocs_per_item on " + onIngest + " only"},
	{Name: "corpus.checkpoint_ms", Unit: "ms", Better: lower, Layer: "corpus",
		Moves: "none of the timed metrics: work moved into compaction shows here"},
	{Name: "corpus.replay_ms", Unit: "ms", Better: lower, Layer: "corpus",
		Moves: "none of the timed metrics: recovery cost"},
	{Name: "corpus.replay_reruns", Unit: "count", Better: lower, Layer: "corpus",
		Moves: "must be 0"},
	{Name: "zoo.infer_us_per_call", Unit: "us", Better: lower, Layer: "zoo",
		Moves: "cpu_ms_per_item on " + onIngest + " only"},
	{Name: "zoo.inferences_per_item", Unit: "count", Better: lower, Layer: "zoo",
		Moves: "cpu_ms_per_item on " + onIngest + " only (0 elsewhere)"},
	{Name: "obs.series", Unit: "count", Better: lower, Layer: "obs",
		Moves: "obs.snapshot_ms"},
	{Name: "obs.counter_ns", Unit: "ns", Better: lower, Layer: "obs",
		Moves: "cpu_ms_per_item on " + onIngest + " only"},
	{Name: "obs.hist_ns", Unit: "ns", Better: lower, Layer: "obs",
		Moves: "cpu_ms_per_item on " + onIngest + " only"},
	{Name: "obs.span_ns", Unit: "ns", Better: lower, Layer: "obs",
		Moves: "cpu_ms_per_item, allocs_per_item on " + onIngest + " only"},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: lower, Layer: "obs",
		Moves: "none of the timed metrics: scrape cost"},
	{Name: "sim.wall_us_per_item", Unit: "us", Better: lower, Layer: "sim",
		Moves: "none today (sim is off the serving path); guards the one-executor refactor"},
	{Name: "sim.recall_delta", Unit: "fraction", Better: lower, Layer: "sim",
		Moves: "must be 0"},
	{Name: "runtime.kb_per_item", Unit: "KB", Better: lower, Layer: "runtime",
		Moves: "cpu_ms_per_item on all"},
	{Name: "runtime.gc_cycles_per_kitem", Unit: "count", Better: lower, Layer: "runtime",
		Moves: "cpu_ms_per_item, load.latency_p99_ms on all"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower, Layer: "runtime",
		Moves: "load.latency_p99_ms on all"},
	{Name: "runtime.rss_peak_mb", Unit: "MB", Better: lower, Layer: "runtime",
		Moves: "none of the timed metrics: memory moved into set-up shows here"},
	{Name: "load.latency_p99_ms", Unit: "ms", Better: lower, Layer: "load",
		Moves: "the tail a user sees; per-layer because its run-to-run spread exceeds any bound the box can hold"},
	{Name: "load.latency_max_ms", Unit: "ms", Better: lower, Layer: "load",
		Moves: "generator honesty: one stall"},
	{Name: "load.latency_samples", Unit: "count", Better: higher, Layer: "load",
		Moves: "generator honesty: samples the percentiles pool"},
	{Name: "load.reps_spread", Unit: "ratio", Better: lower, Layer: "load",
		Moves: "generator honesty: (max-min)/median of items_per_s over the repetitions"},
	{Name: "load.trace_overhead_ratio", Unit: "ratio", Better: higher, Layer: "load",
		Moves: "generator honesty: traced / untraced items_per_s"},
}

// runSeconds is how long one run measures; see README "Sizing".
const runSeconds = 20

// manifest renders BENCHMARK.json with exactly the contract's keys.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
