package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ams"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// options is one benchmark run. images, scale and setups exist for
// bench_test.go, which runs every workload at tiny scale; the command
// line always uses the table's sizes.
type options struct {
	workload workload
	seed     uint64
	seconds  float64 // how long the timed repetitions run
	trace    bool    // traced run: per-layer metrics instead of end-to-end
	tmp      string  // scratch directory for corpus journals and the agent file
	spans    string  // where the traced run writes its span file

	images int     // dataset size (systemImages)
	scale  float64 // multiplies Items per repetition (1)
	setups int     // how many times set-up runs for the setup_s median (3)
}

// failures counts failed checks from outside the server and keeps the
// first few messages for the report.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	f.n++
	if len(f.first) < 8 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// fixture is what set-up builds: the system under test, its agent, and
// for the floor workloads the reference schedules.
type fixture struct {
	sys   *ams.System
	agent *ams.Agent
	nTest int
	// refs[i] is System.LabelWith on test item i under the workload's
	// policy and budget (Parity workloads only).
	refs []*ams.Result
}

type runner struct {
	o     options
	fx    *fixture
	items int // per timed repetition, after scaling
	fails failures
	// attempted counts every item submitted in a checked pass (parity,
	// warm-up, timed and traced repetitions).
	attempted int
}

// parallelPolicy reports whether the workload serves items with
// Algorithm 2's per-item parallel executor.
func (w workload) parallelPolicy() bool { return w.Serve.Policy.Name() == ams.PolicyAlgorithm2.Name() }

// budget is the workload's per-item budget in System.LabelWith's shape.
func (w workload) budget() ams.Budget {
	b := ams.Budget{DeadlineSec: w.Serve.DeadlineSec}
	if w.parallelPolicy() {
		b.MemoryGB = w.Serve.MemoryGB
	}
	return b
}

// setUp builds the fixture, runs the parity pass and one warm-up
// repetition at a quarter of the timed size. Its duration is setup_s.
func (r *runner) setUp(ctx context.Context) error {
	o := r.o
	sys, err := ams.New(ams.Config{Dataset: ams.DatasetMSCOCO, NumImages: o.images, Seed: systemSeed})
	if err != nil {
		return err
	}
	agent, err := sys.TrainAgent(ams.TrainOptions{Algorithm: ams.DuelingDQN, Epochs: trainEpochs,
		Hidden: []int{hiddenWidth}, Seed: systemSeed})
	if err != nil {
		return err
	}
	fx := &fixture{sys: sys, agent: agent, nTest: sys.NumTestImages()}
	r.fx = fx
	// Whole cycles of the test split, so every test item is served
	// equally often whatever the order.
	unit := fx.nTest
	if o.workload.Corpus != nil {
		unit *= 4 // one test item in four
	}
	r.items = max(1, int(math.Round(float64(o.workload.Items)*o.scale/float64(unit)))) * unit

	if o.workload.Parity {
		for i := 0; i < fx.nTest; i++ {
			ref, err := sys.LabelWith(ctx, o.workload.Serve.Policy, agent, sys.TestItem(i), o.workload.budget())
			if err != nil {
				return fmt.Errorf("reference schedule %d: %w", i, err)
			}
			fx.refs = append(fx.refs, ref)
		}
		if err := r.parityPass(ctx); err != nil {
			return err
		}
	}
	_, err = r.repetition(ctx, -1, max(r.items/4, 1), nil, true)
	return err
}

// sameSchedule reports whether a served result ran the reference's
// models, in order, for the same time and recall.
func sameSchedule(got, want *ams.Result) bool {
	return slices.Equal(got.ModelsRun, want.ModelsRun) && got.Recall == want.Recall && got.TimeSec == want.TimeSec
}

// parityPass serves every test item once at one worker and requires the
// result to be bit-identical to System.LabelWith: at one worker nothing
// contends, so the server's executor must reproduce the library's.
func (r *runner) parityPass(ctx context.Context) error {
	cfg := r.o.workload.Serve
	cfg.Workers = 1
	srv, err := r.fx.sys.NewServer(r.fx.agent, cfg)
	if err != nil {
		return err
	}
	for i, ref := range r.fx.refs {
		r.attempted++
		tk, err := srv.SubmitWait(ctx, r.fx.sys.TestItem(i))
		if err != nil {
			r.fails.add("parity: submit %d: %v", i, err)
			continue
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			r.fails.add("parity: wait %d: %v", i, err)
			continue
		}
		if !sameSchedule(res, ref) || !slices.Equal(res.Labels, ref.Labels) {
			r.fails.add("parity: item %d served %v recall %v, LabelWith gives %v recall %v",
				i, res.ModelsRun, res.Recall, ref.ModelsRun, ref.Recall)
		}
	}
	return srv.Close()
}

// loadItem is one item of a repetition: test is its test-split index,
// -1 for a freshly generated scene.
type loadItem struct {
	item ams.Item
	test int
}

// makeItems derives a repetition's items from the workload seed: the
// test split cycled in a fresh seeded order per cycle and, with a
// corpus, three fresh scenes before each test item. IDs are the
// positions, so the collector matches completions without a map.
func (r *runner) makeItems(rep, n int) []loadItem {
	mix := r.o.seed*0x9e3779b97f4a7c15 + uint64(rep+2)
	rng := tensor.NewRNG(mix)
	var fresh []ams.Item
	if r.o.workload.Corpus != nil {
		fresh = r.fx.sys.GenerateItems(n-n/4, mix)
	}
	items := make([]loadItem, 0, n)
	var order []int
	for i := 0; i < n; i++ {
		if fresh != nil && i%4 != 3 {
			items = append(items, loadItem{item: fresh[0].WithID(strconv.Itoa(i)), test: -1})
			fresh = fresh[1:]
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(r.fx.nTest)
		}
		items = append(items, loadItem{item: r.fx.sys.TestItem(order[0]).WithID(strconv.Itoa(i)), test: order[0]})
		order = order[1:]
	}
	return items
}

// repResult is what one repetition measured. vals is keyed by metric
// name; run takes the median of each over the repetitions.
type repResult struct {
	vals      map[string]float64
	latencyMS []float64
	// served maps a test item to the models the server ran for it (the
	// last time it was served): the schedules the layer drivers replay.
	served map[int][]string
}

// repetition serves n items through a fresh server (and a fresh corpus
// directory) from one closed-loop generator: this goroutine keeps
// Window items outstanding through SubmitWait, a collector goroutine
// reads Results and matches completions by ID. With a tracer it records
// the per-item and per-repetition spans; with recovery it also
// checkpoints, reopens and replays the corpus and checks the replay.
func (r *runner) repetition(ctx context.Context, rep, n int, tr *tracer, recovery bool) (*repResult, error) {
	wl := r.o.workload
	sys := r.fx.sys
	items := r.makeItems(rep, n)
	repSpan := tr.begin("rep", -1, -1)
	defer tr.end(repSpan)

	cfg := wl.Serve
	cfg.StatsWindow = n // Stats summarizes the whole repetition
	var (
		corpus *ams.Corpus
		dir    string
	)
	if wl.Corpus != nil {
		dir = filepath.Join(r.o.tmp, fmt.Sprintf("corpus-%d", rep+1))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		s := tr.begin("corpus.open", repSpan, -1)
		c, err := sys.OpenCorpusDir(dir, cfg.Shards, *wl.Corpus)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		corpus = c
		cfg.Corpus = c
	}
	s := tr.begin("serve.new", repSpan, -1)
	srv, err := sys.NewServer(r.fx.agent, cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	results := srv.Results()

	var (
		submitAt = make([]int64, n) // ns since start
		doneAt   = make([]int64, n)
		seen     = make([]bool, n)
		window   = make(chan struct{}, wl.Window)
		served   = make(map[int][]string)
		kept     map[int]*ams.Result // fresh items' results, for the replay check
		recall   float64
		recallN  int

		rootSpan, submitSpan []int
		open                 []atomic.Int32 // 2 until both the submit call and the completion are in
	)
	if recovery && corpus != nil {
		kept = make(map[int]*ams.Result)
	}
	if tr != nil {
		rootSpan, submitSpan = make([]int, n), make([]int, n)
		open = make([]atomic.Int32, n)
		for i := range open {
			open[i].Store(2)
		}
	}
	deadline := wl.Serve.DeadlineSec + 1e-9

	// Level the heap so one repetition's garbage is not the next one's
	// first collection.
	runtime.GC()
	before := readUsage()
	inferences := zoo.Inferences()
	start := time.Now()

	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for res := range results {
			now := int64(time.Since(start))
			i, err := strconv.Atoi(res.ItemID)
			if err != nil || i < 0 || i >= n {
				r.fails.add("rep %d: result with unknown id %q", rep, res.ItemID)
				continue
			}
			if seen[i] {
				r.fails.add("rep %d: item %d completed twice", rep, i)
				continue
			}
			seen[i] = true
			doneAt[i] = now
			if tr != nil {
				tr.follow("load.await", submitSpan[i], rootSpan[i], i)
				if open[i].Add(-1) == 0 {
					tr.end(rootSpan[i])
				}
			}
			it := items[i]
			if res.TimeSec > deadline {
				r.fails.add("rep %d: item %d ran %.4f s past the %.4f s deadline", rep, i, res.TimeSec, wl.Serve.DeadlineSec)
			}
			if it.test >= 0 {
				if !res.HasRecall {
					r.fails.add("rep %d: test item %d has no recall", rep, i)
				}
				recall += res.Recall
				recallN++
				served[it.test] = res.ModelsRun
				if wl.Exact {
					ref := r.fx.refs[it.test]
					// Labels are compared on a sample: the full check is
					// most of a result's size and would load the collector.
					if !sameSchedule(res, ref) || (i%64 == 0 && !slices.Equal(res.Labels, ref.Labels)) {
						r.fails.add("rep %d: item %d (test %d) served %v, reference %v", rep, i, it.test, res.ModelsRun, ref.ModelsRun)
					}
				}
			} else if kept != nil {
				kept[i] = res
			}
			<-window
		}
	}()

	var submitNS int64
	for i := range items {
		window <- struct{}{}
		submitAt[i] = int64(time.Since(start))
		if tr != nil {
			rootSpan[i] = tr.begin("item", -1, i)
			submitSpan[i] = tr.begin("load.submit", rootSpan[i], i)
		}
		_, err := srv.SubmitWait(ctx, items[i].item)
		if tr != nil {
			tr.end(submitSpan[i])
			if open[i].Add(-1) == 0 {
				tr.end(rootSpan[i])
			}
		}
		submitNS += int64(time.Since(start)) - submitAt[i]
		if err != nil {
			r.fails.add("rep %d: submit %d: %v", rep, i, err)
			<-window
		}
	}
	s = tr.begin("serve.close", repSpan, -1)
	drainStart := time.Now()
	closeErr := srv.Close()
	drain := time.Since(drainStart)
	tr.end(s)
	<-collected
	after := readUsage()
	inferences = zoo.Inferences() - inferences
	if closeErr != nil {
		return nil, fmt.Errorf("close: %w", closeErr)
	}

	s = tr.begin("serve.stats", repSpan, -1)
	statsStart := time.Now()
	st := srv.Stats()
	statsDur := time.Since(statsStart)
	tr.end(s)

	// Failures are counted here, by the generator: ServeStats.Rejected
	// counts the sharded router's full-queue probes inside SubmitWait
	// even when nothing is shed, so it is reported as a layer metric
	// and kept out of the failure count.
	r.attempted += n
	var last int64
	lat := make([]float64, 0, n)
	for i := range seen {
		if !seen[i] {
			r.fails.add("rep %d: item %d has no result", rep, i)
			if tr != nil && open[i].Load() > 0 {
				tr.end(rootSpan[i])
			}
			continue
		}
		last = max(last, doneAt[i])
		lat = append(lat, float64(doneAt[i]-submitAt[i])/1e6)
	}
	if st.ResultsDropped > 0 {
		r.fails.add("rep %d: %d results dropped", rep, st.ResultsDropped)
	}
	if budget := wl.Serve.MemoryGB * 1024; st.PeakMemMB > budget+1e-6 {
		r.fails.add("rep %d: peak memory %.1f MB over the %.1f MB budget", rep, st.PeakMemMB, budget)
	}
	if last == 0 {
		return nil, fmt.Errorf("rep %d: no item completed", rep)
	}

	fn := float64(n)
	wall := float64(last) / 1e9
	v := map[string]float64{
		"items_per_s":     fn / wall,
		"cpu_ms_per_item": float64(after.cpu-before.cpu) / 1e6 / fn,
		"allocs_per_item": float64(after.allocs-before.allocs) / fn,

		"sched.select_us_per_item":     st.AvgSelectSec * 1e6,
		"serve.admit_wait_us_per_item": float64(submitNS) / 1e3 / fn,
		"serve.drain_ms":               float64(drain) / 1e6,
		"serve.utilization":            st.Utilization,
		"serve.mem_waits_per_item":     float64(st.MemWaits) / fn,
		"serve.peak_mem_mb":            st.PeakMemMB,
		"batch.batches_per_item":       float64(st.Batches) / fn,
		"batch.largest":                float64(st.LargestBatch),
		"batch.saved_gpu_ms_per_item":  st.BatchSavedGPUMS / fn,
		"shard.steals_per_item":        float64(st.Steals) / fn,
		"zoo.inferences_per_item":      float64(inferences) / fn,
		"obs.series":                   float64(len(st.Telemetry)),
		"runtime.kb_per_item":          float64(after.bytes-before.bytes) / 1024 / fn,
		"runtime.gc_cycles_per_kitem":  float64(after.gcs-before.gcs) / fn * 1000,
		"runtime.gc_pause_ms_total":    float64(after.pause-before.pause) / 1e6,
		"runtime.rss_peak_mb":          float64(after.rssKB) / 1024,
	}
	if recallN > 0 {
		v["recall"] = recall / float64(recallN)
	}
	if asks := st.PredCacheHits + st.PredCacheMisses; asks > 0 {
		v["sched.cache_hit_ratio"] = float64(st.PredCacheHits) / float64(asks)
	}
	if st.Batches > 0 {
		v["batch.mean_size"] = float64(st.BatchedRequests) / float64(st.Batches)
	}
	if len(st.PerShard) > 1 {
		v["shard.full_probes_per_item"] = float64(st.Rejected) / fn
		lo, hi := st.PerShard[0].Completed, st.PerShard[0].Completed
		for _, ps := range st.PerShard[1:] {
			lo, hi = min(lo, ps.Completed), max(hi, ps.Completed)
		}
		if lo > 0 {
			v["shard.imbalance"] = float64(hi) / float64(lo)
		}
	}
	if cfg.Telemetry {
		v["obs.snapshot_ms"] = float64(statsDur) / 1e6
	}
	if corpus != nil {
		cs := corpus.Stats()
		v["corpus.journal_bytes_per_item"] = float64(cs.JournalBytes) / fn
		v["corpus.records_per_item"] = float64(cs.JournalRecords) / fn
		v["corpus.syncs_per_kitem"] = float64(cs.Syncs) / fn * 1000
		if recovery {
			if err := r.recover(ctx, srv, corpus, dir, cfg, kept, tr, repSpan, v); err != nil {
				return nil, err
			}
		} else {
			s := tr.begin("corpus.close", repSpan, -1)
			err := corpus.Close()
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
	}
	return &repResult{vals: v, latencyMS: lat, served: served}, nil
}

// recover measures the corpus's recovery path on the repetition's own
// journal: compact it (Server.Checkpoint), close it, reopen the
// directory and replay it. Every fresh item must come back from its
// persisted memos with the labels it was served with and without one
// model re-run.
func (r *runner) recover(ctx context.Context, srv *ams.Server, corpus *ams.Corpus, dir string, cfg ams.ServeConfig,
	kept map[int]*ams.Result, tr *tracer, repSpan int, v map[string]float64) error {
	s := tr.begin("corpus.checkpoint", repSpan, -1)
	t0 := time.Now()
	err := srv.Checkpoint()
	v["corpus.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(s)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s = tr.begin("corpus.close", repSpan, -1)
	err = corpus.Close()
	tr.end(s)
	if err != nil {
		return err
	}

	inferences := zoo.Inferences()
	s = tr.begin("corpus.replay", repSpan, -1)
	t0 = time.Now()
	reopened, err := r.fx.sys.OpenCorpusDir(dir, 0, ams.CorpusOptions{})
	if err != nil {
		tr.end(s)
		return fmt.Errorf("reopen corpus: %w", err)
	}
	report, err := r.fx.sys.ReplayCorpus(ctx, r.fx.agent, cfg, reopened)
	v["corpus.replay_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	reruns := zoo.Inferences() - inferences
	v["corpus.replay_reruns"] = float64(reruns)
	if reruns != 0 || len(report.Relabeled) != 0 {
		r.fails.add("replay re-ran %d models and relabeled %d items; want 0 and 0", reruns, len(report.Relabeled))
	}
	if len(report.Recovered) != len(kept) {
		r.fails.add("replay recovered %d items, %d were served", len(report.Recovered), len(kept))
	}
	for _, got := range report.Recovered {
		i, err := strconv.Atoi(got.ItemID)
		want := kept[i]
		if err != nil || want == nil {
			r.fails.add("replay recovered unknown item %q", got.ItemID)
			continue
		}
		if !slices.Equal(got.ModelsRun, want.ModelsRun) || !slices.Equal(got.Labels, want.Labels) {
			r.fails.add("replayed item %d differs from the served result", i)
		}
	}
	return reopened.Close()
}
