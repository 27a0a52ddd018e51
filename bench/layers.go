package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"ams"
	"ams/internal/batch"
	"ams/internal/core"
	"ams/internal/corpus"
	"ams/internal/obs"
	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/serve"
	"ams/internal/service"
	"ams/internal/shard"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/vtime"
	"ams/internal/zoo"
)

// The layer drivers measure each internal package from outside, by
// timing calls into its exported functions. Each driver replays the
// schedules the workload itself was served (which models ran for which
// test item, in order), so a layer sees the operation mix the workload
// gives it, on at most two goroutines. Every call is a span; the
// per-layer metrics are read off the span totals. A driver runs only
// when its layer is in the workload's configuration; the metrics of a
// layer the workload bypasses stay 0.

// trainFrac is ams.New's default split, needed to rebuild the test store
// the System keeps private.
const trainFrac = 0.2

// Driver sizes: enough calls for a stable mean, few enough that all
// the drivers finish in a few seconds. ops scales the call counts with
// the run (bench_test.go runs at a hundredth).
const (
	replayRounds  = 3    // passes over the served schedules
	maxDriverOps  = 4000 // cap on per-call drivers (sleeps, enqueues)
	roundTrips    = 3000 // serve.dispatch / shard.route items
	timerCalls    = 2000
	ingestScenes  = 600 // corpus.append / zoo.infer items
	obsBatches    = 200 // obs.* spans, each covering obsBatchOps calls
	obsBatchOps   = 1024
	obsTraceSpans = 32 // spans opened per item trace (the per-item cap is 64)
)

// ops scales a driver's call count with the run, never below 16.
func (d *drivers) ops(n int) int { return max(16, int(float64(n)*d.r.o.scale)) }

// schedule is one served test item: the models the server ran, in order.
type schedule struct {
	test   int
	models []int
}

type drivers struct {
	r      *runner
	tr     *tracer
	store  *oracle.Store
	agent  *core.Agent
	scheds []schedule
	states [][]int       // label states the policy was asked at, in replay order
	slept  time.Duration // what the vtime.sleep spans asked the wheel for, summed
	v      map[string]float64
}

// newDrivers rebuilds what the System keeps unexported — the test store
// and the agent's network — from its exported parts, and resolves the
// served model names to zoo ids.
func newDrivers(r *runner, tr *tracer, served map[int][]string) (*drivers, error) {
	sys := r.fx.sys
	_, testScenes := sys.Dataset.Split(trainFrac)
	if len(testScenes) != r.fx.nTest {
		return nil, fmt.Errorf("test split rebuilt with %d scenes, the system has %d", len(testScenes), r.fx.nTest)
	}
	path := filepath.Join(r.o.tmp, "agent.gob")
	if err := r.fx.agent.Save(path); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	agent, err := core.LoadAgentFile(path)
	if err != nil {
		return nil, err
	}
	d := &drivers{r: r, tr: tr, store: oracle.Build(sys.Zoo, testScenes), agent: agent, v: make(map[string]float64)}
	for test := 0; test < r.fx.nTest; test++ {
		names, ok := served[test]
		if !ok {
			return nil, fmt.Errorf("test item %d was never served", test)
		}
		ids, err := d.modelIDs(names)
		if err != nil {
			return nil, err
		}
		d.scheds = append(d.scheds, schedule{test: test, models: ids})
	}
	return d, nil
}

func (d *drivers) modelIDs(names []string) ([]int, error) {
	ids := make([]int, len(names))
	for i, name := range names {
		m, ok := d.r.fx.sys.Zoo.ByName(name)
		if !ok {
			return nil, fmt.Errorf("served model %q is not in the zoo", name)
		}
		ids[i] = m.ID
	}
	return ids, nil
}

// run drives every layer the workload uses and fills d.v from the span
// totals.
func (d *drivers) run(ctx context.Context) error {
	wl := d.r.o.workload
	steps := []struct {
		name string
		on   bool
		fn   func(ctx context.Context, parent int) error
	}{
		{"sched.next", true, d.schedNext},
		{"nn.forward", true, d.nnForward},
		{"oracle.tracker", true, d.oracleTracker},
		{"serve.dispatch", true, d.serveDispatch},
		{"vtime.sleep", true, d.vtimeSleep},
		{"batch.enqueue", wl.Serve.BatchSize > 0, d.batchEnqueue},
		{"shard.route", wl.Serve.Shards > 1, d.shardRoute},
		{"corpus.append", wl.Corpus != nil, d.corpusAppend},
		{"obs.record", wl.Serve.Telemetry, d.obsRecord},
		{"sim.run", wl.Exact, d.simRun},
	}
	for _, st := range steps {
		if !st.on {
			continue
		}
		parent := d.tr.begin("drive:"+st.name, -1, -1)
		err := st.fn(ctx, parent)
		d.tr.end(parent)
		if err != nil {
			return fmt.Errorf("%s driver: %w", st.name, err)
		}
	}
	return nil
}

// tracedPolicy wraps the policy under replay so every Next is a span.
type tracedPolicy struct {
	sim.Policy
	tr     *tracer
	parent int
	item   int
	states *[][]int // when set, records the label state of every ask
}

func (p *tracedPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	if p.states != nil {
		*p.states = append(*p.states, slices.Clone(t.State()))
	}
	s := p.tr.begin("sched.next", p.parent, p.item)
	m := p.Policy.Next(t, c)
	p.tr.end(s)
	return m
}

// newPolicy builds the workload's policy over a private clone of the
// agent's network, exactly as the server does per worker.
func (d *drivers) newPolicy(cache *sched.SharedCache) sim.Policy {
	clone := &core.Agent{Net: d.agent.Net.Clone(), NumModels: d.agent.NumModels,
		Algo: d.agent.Algo, Dataset: d.agent.Dataset}
	pred := sched.NewSharedCachedPredictor(clone, cache)
	if d.r.o.workload.parallelPolicy() {
		return sched.NewMemoryPacker(pred, d.r.fx.sys.Zoo)
	}
	return sched.NewCostQGreedy(pred, d.r.fx.sys.Zoo)
}

// schedNext replays every served item's schedule through the workload's
// policy, uncontended: the serial loop of serve.process for Algorithm 1,
// sim.RunParallel for Algorithm 2. On the floor workloads the replayed
// schedule must equal the System.LabelWith reference.
func (d *drivers) schedNext(_ context.Context, parent int) error {
	wl := d.r.o.workload
	deadlineMS := wl.Serve.DeadlineSec * 1000
	memMB := wl.Serve.MemoryGB * 1024 / float64(max(wl.Serve.Shards, 1))
	var cache *sched.SharedCache
	if wl.Serve.PredictorCache {
		cache = sched.NewSharedCache(0)
	}
	goroutines := min(2, wl.Serve.Workers)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		pol := &tracedPolicy{Policy: d.newPolicy(cache), tr: d.tr, parent: parent}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < replayRounds; round++ {
				// One goroutine records the states of one pass: they
				// are nn.forward's input.
				pol.states = nil
				if g == 0 && round == 0 {
					pol.states = &d.states
				}
				for k := g; k < len(d.scheds); k += goroutines {
					sc := d.scheds[k]
					pol.item = sc.test
					var got []int
					if wl.parallelPolicy() {
						got = sim.RunParallel(d.store, sc.test, pol, deadlineMS, memMB).Executed
					} else {
						got = d.runSerial(pol, sc.test, deadlineMS, memMB)
					}
					if wl.Parity {
						want, err := d.modelIDs(d.r.fx.refs[sc.test].ModelsRun)
						if err != nil || !slices.Equal(got, want) {
							d.r.fails.add("sched.next replay of test item %d ran %v, reference %v", sc.test, got, want)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	return nil
}

// runSerial is serve.process's loop without the server around it: ask,
// execute, observe, until the policy declines or the deadline is spent.
func (d *drivers) runSerial(pol sim.Policy, item int, deadlineMS, memMB float64) []int {
	pol.Reset(item)
	t := oracle.NewTracker(d.store, item)
	remaining := deadlineMS
	var executed []int
	for remaining > 0 && t.ExecutedCount() < d.store.NumModels() {
		m := pol.Next(t, sim.Constraints{RemainingMS: remaining, AvailMemMB: memMB})
		if m < 0 {
			break
		}
		t.Execute(m)
		pol.Observe(m, d.store.Output(item, m))
		executed = append(executed, m)
		remaining -= d.store.Model(m).TimeMS
	}
	return executed
}

// nnForward times the Q-network alone: Agent.PredictValues on the label
// states the replay visited.
func (d *drivers) nnForward(_ context.Context, parent int) error {
	if len(d.states) == 0 {
		return fmt.Errorf("the sched.next replay recorded no label states")
	}
	agent := d.r.fx.agent
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := 0
	for round := 0; round < replayRounds; round++ {
		for _, state := range d.states {
			s := d.tr.begin("nn.forward", parent, -1)
			q := agent.PredictValues(state)
			d.tr.end(s)
			if len(q) == 0 {
				return fmt.Errorf("PredictValues returned no values")
			}
			calls++
		}
	}
	runtime.ReadMemStats(&ms1)
	// The tracer's own appends are amortized allocations of the run, not
	// of the forward pass; they are a small constant share.
	d.v["nn.forward_allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
	return nil
}

// oracleTracker times the labeling-state bookkeeping of one item:
// NewTracker, one Execute per served model, Recall.
func (d *drivers) oracleTracker(_ context.Context, parent int) error {
	for round := 0; round < replayRounds; round++ {
		for _, sc := range d.scheds {
			s := d.tr.begin("oracle.tracker", parent, sc.test)
			t := oracle.NewTracker(d.store, sc.test)
			for _, m := range sc.models {
				t.Execute(m)
			}
			recall := t.Recall()
			d.tr.end(s)
			if recall < 0 || recall > 1+1e-9 {
				return fmt.Errorf("recall %v out of range", recall)
			}
		}
	}
	return nil
}

// declinePolicy ends every schedule at once, so a round trip through a
// server measures the server, not the schedule.
type declinePolicy struct{}

func (declinePolicy) Name() string                              { return "decline" }
func (declinePolicy) Reset(int)                                 {}
func (declinePolicy) Next(*oracle.Tracker, sim.Constraints) int { return -1 }
func (declinePolicy) Observe(int, zoo.Output)                   {}

func declineFactory(int) sim.Policy { return declinePolicy{} }

func (d *drivers) serveConfig(workers int) serve.Config {
	wl := d.r.o.workload
	return serve.Config{
		Config:    service.Config{Workers: workers, DeadlineSec: wl.Serve.DeadlineSec},
		TimeScale: wl.Serve.TimeScale,
	}
}

// serveDispatch times internal/serve's round trip — admit, queue,
// dispatch, finish, resolve the ticket — at one worker with a policy
// that declines at once.
func (d *drivers) serveDispatch(ctx context.Context, parent int) error {
	srv, err := serve.New(d.store, declineFactory, d.serveConfig(1))
	if err != nil {
		return err
	}
	for k := 0; k < d.ops(roundTrips); k++ {
		item := k % d.r.fx.nTest
		s := d.tr.begin("serve.dispatch", parent, item)
		tk, err := srv.SubmitWait(ctx, item, "")
		if err != nil {
			d.tr.end(s)
			_ = srv.Close()
			return err
		}
		tk.Wait()
		d.tr.end(s)
	}
	return srv.Close()
}

// vtimeSleep times the wheel at the workload's own scaled model
// durations, with as many concurrent sleepers as the workload has
// workers, then a one-nanosecond timer's schedule-to-fire cost.
func (d *drivers) vtimeSleep(_ context.Context, parent int) error {
	wl := d.r.o.workload
	var durations []time.Duration
	sleeps := d.ops(maxDriverOps)
	for len(durations) < sleeps {
		for _, sc := range d.scheds {
			for _, m := range sc.models {
				ms := d.store.Model(m).TimeMS * wl.Serve.TimeScale
				durations = append(durations, time.Duration(ms*float64(time.Millisecond)))
			}
		}
	}
	durations = durations[:sleeps]
	for _, dur := range durations {
		d.slept += dur
	}
	wheel := vtime.NewWheel()
	defer wheel.Stop()
	sleepers := wl.Serve.Workers
	var wg sync.WaitGroup
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(durations); k += sleepers {
				s := d.tr.begin("vtime.sleep", parent, -1)
				wheel.Sleep(durations[k])
				d.tr.end(s)
			}
		}(g)
	}
	wg.Wait()

	for k := 0; k < d.ops(timerCalls); k++ {
		done := make(chan struct{})
		s := d.tr.begin("vtime.timer", parent, -1)
		wheel.AfterFunc(time.Nanosecond, func() { close(done) })
		<-done
		d.tr.end(s)
	}
	return nil
}

// batchEnqueue times the cost a worker pays to hand a request to the
// batching runtime (lane lookup, seal at MaxBatch, arming the hold
// timer), on the served model sequence. The waits for the batches
// themselves are outside the spans.
func (d *drivers) batchEnqueue(_ context.Context, parent int) error {
	wl := d.r.o.workload
	models := d.r.fx.sys.Zoo.Models
	wheel := vtime.NewWheel()
	defer wheel.Stop()
	b := batch.New(models, nil, wheel, batch.Config{MaxBatch: wl.Serve.BatchSize,
		MaxHoldMS: wl.Serve.BatchHoldMS, TimeScale: wl.Serve.TimeScale})
	var dones []chan struct{}
	for _, sc := range d.scheds {
		for _, m := range sc.models {
			if len(dones) == d.ops(maxDriverOps) {
				break
			}
			done := make(chan struct{})
			dones = append(dones, done)
			s := d.tr.begin("batch.enqueue", parent, sc.test)
			b.Enqueue(m, false, done, nil)
			d.tr.end(s)
		}
	}
	for _, done := range dones {
		<-done
	}
	if st := b.Stats(); st.Requests != int64(len(dones)) {
		return fmt.Errorf("batcher ran %d of %d requests", st.Requests, len(dones))
	}
	return nil
}

// shardRoute times the router's round trip — place by affinity, queue,
// dispatch to a shard's server, resolve — over declining servers, so
// what is left after serve.dispatch is the router's own cost.
func (d *drivers) shardRoute(ctx context.Context, parent int) error {
	wl := d.r.o.workload
	n := wl.Serve.Shards
	servers := make([]*serve.Server, n)
	workers := make([]int, n)
	for i := range servers {
		workers[i] = max(wl.Serve.Workers/n, 1)
		srv, err := serve.New(d.store, declineFactory, d.serveConfig(workers[i]))
		if err != nil {
			return err
		}
		servers[i] = srv
	}
	placement, err := shard.PlacementByName(wl.Serve.ShardPlacement)
	if err != nil {
		return err
	}
	router, err := shard.New(servers, shard.Config{Placement: placement, Steal: wl.Serve.ShardSteal,
		Models: len(d.r.fx.sys.Zoo.Models), Workers: workers})
	if err != nil {
		return err
	}
	for k := 0; k < d.ops(roundTrips); k++ {
		sc := d.scheds[k%len(d.scheds)]
		hint := sc.models[:min(len(sc.models), 4)]
		s := d.tr.begin("shard.route", parent, sc.test)
		tk, err := router.SubmitWait(ctx, shard.Item{Key: uint64(k), Hint: hint, Index: sc.test})
		if err != nil {
			d.tr.end(s)
			_ = router.Close()
			return err
		}
		<-tk.Done()
		d.tr.end(s)
	}
	return router.Close()
}

// corpusAppend times what ingestion adds to an item: journal the scene
// (admit), journal each model output as it is memoized, journal the
// commit, evict. The item's models run inside Output, so the same
// (scene, model) inferences are first timed alone as zoo.infer and
// taken out of corpus.append_us_per_item.
func (d *drivers) corpusAppend(ctx context.Context, parent int) error {
	wl := d.r.o.workload
	sys := d.r.fx.sys
	gen := synth.NewGenerator(sys.Vocabulary, sys.Dataset.Profile, d.r.o.seed^0x5eed)
	scenes := make([]synth.Scene, d.ops(ingestScenes))
	for i := range scenes {
		scenes[i] = gen.Next()
	}
	for i := range scenes {
		for _, m := range d.scheds[i%len(d.scheds)].models {
			s := d.tr.begin("zoo.infer", parent, -1)
			out := sys.Zoo.Models[m].Infer(&scenes[i])
			d.tr.end(s)
			_ = out
		}
	}

	dir := filepath.Join(d.r.o.tmp, "corpus-driver")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := corpus.Options{MaxResident: wl.Corpus.MaxResident, SyncEveryN: wl.Corpus.SyncEveryN,
		SyncEveryMS: wl.Corpus.SyncEveryMS}
	segs, err := corpus.OpenDir(sys.Zoo, dir, max(wl.Serve.Shards, 1), opts)
	if err != nil {
		return err
	}
	var firstErr error
	for i := range scenes {
		seg := segs[i%len(segs)]
		sc := d.scheds[i%len(d.scheds)]
		s := d.tr.begin("corpus.append", parent, -1)
		seq, err := seg.AdmitWait(ctx, scenes[i], "")
		if err == nil {
			seg.Begin(seq)
			item := seg.Item(seq)
			var ms float64
			for _, m := range sc.models {
				item.Output(m)
				ms += sys.Zoo.Models[m].TimeMS
			}
			err = seg.Commit(seq, sc.models, ms)
		}
		d.tr.end(s)
		if err != nil {
			firstErr = err
			break
		}
	}
	for _, seg := range segs {
		if err := seg.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// obsRecord times the three instruments the serving path touches per
// item — a counter increment, a histogram observation, a span — in
// batches of obsBatchOps calls per bench span, since one call is
// shorter than a clock reading.
func (d *drivers) obsRecord(_ context.Context, parent int) error {
	reg := obs.NewRegistry()
	counter := reg.Counter("bench_ops_total", "operations the obs driver counted")
	hist := reg.Histogram("bench_op_seconds", "durations the obs driver observed")
	tracer := obs.NewTracer(0)
	batches := d.ops(obsBatches)
	for b := 0; b < batches; b++ {
		s := d.tr.begin("obs.counter", parent, -1)
		for k := 0; k < obsBatchOps; k++ {
			counter.Inc()
		}
		d.tr.end(s)

		s = d.tr.begin("obs.hist", parent, -1)
		for k := 0; k < obsBatchOps; k++ {
			hist.Observe(float64(k) * 1e-6)
		}
		d.tr.end(s)

		s = d.tr.begin("obs.span", parent, -1)
		for k := 0; k < obsBatchOps; k += obsTraceSpans {
			trace := tracer.Begin(k, "")
			root := trace.Root(time.Now())
			for j := 0; j < obsTraceSpans; j++ {
				id := trace.StartSpan(obs.SpanExec, root, -1)
				trace.EndSpan(id)
			}
			tracer.End(trace)
		}
		d.tr.end(s)
	}
	if want := int64(batches * obsBatchOps); counter.Value() != want || hist.Count() != want {
		return fmt.Errorf("instruments lost updates: counter %d, histogram %d", counter.Value(), hist.Count())
	}
	return nil
}

// simRun times the virtual-time simulation of the serial floor's trace
// and requires its recall to equal the references' (the sim and the
// library executor must agree; the arrival rate only spaces arrivals on
// the virtual clock).
func (d *drivers) simRun(_ context.Context, parent int) error {
	n := d.r.items
	s := d.tr.begin("sim.run", parent, -1)
	st, err := d.r.fx.sys.SimulateServe(d.r.fx.agent, d.r.o.workload.Serve,
		ams.ServeTrace{ArrivalRateHz: 1000, Items: n, Seed: d.r.o.seed})
	d.tr.end(s)
	if err != nil {
		return err
	}
	var want float64
	for _, ref := range d.r.fx.refs {
		want += ref.Recall
	}
	want /= float64(len(d.r.fx.refs))
	// n is whole cycles of the test split, so the two means cover the
	// same items; they differ only by summation order.
	delta := math.Abs(st.AvgRecall - want)
	if delta < 1e-12 {
		delta = 0
	}
	d.v["sim.recall_delta"] = delta
	if delta != 0 {
		d.r.fails.add("sim recall %v differs from the references' %v", st.AvgRecall, want)
	}
	return nil
}

// metrics turns the span totals into the per-layer metrics.
func (d *drivers) metrics(tot map[string]spanTotals) {
	perCall := func(name string, div float64) float64 {
		t := tot[name]
		if t.Count == 0 {
			return 0
		}
		return float64(t.SelfNS) / float64(t.Count) / div
	}
	const us = 1e3
	replays := float64(len(d.scheds) * replayRounds)
	d.v["sched.next_us_per_call"] = perCall("sched.next", us)
	d.v["sched.selects_per_item"] = float64(tot["sched.next"].Count) / replays
	d.v["nn.forward_us_per_call"] = perCall("nn.forward", us)
	d.v["oracle.tracker_us_per_item"] = perCall("oracle.tracker", us)
	d.v["serve.dispatch_us_per_item"] = perCall("serve.dispatch", us)
	if t := tot["vtime.sleep"]; t.Count > 0 {
		d.v["vtime.sleep_overshoot_us"] = float64(t.SelfNS-int64(d.slept)) / float64(t.Count) / us
	}
	d.v["vtime.timer_us_per_call"] = perCall("vtime.timer", us)
	d.v["batch.enqueue_us_per_req"] = perCall("batch.enqueue", us)
	d.v["shard.route_us_per_item"] = perCall("shard.route", us)
	d.v["zoo.infer_us_per_call"] = perCall("zoo.infer", us)
	if t := tot["corpus.append"]; t.Count > 0 {
		// Net of the inferences the same outputs cost when computed alone.
		d.v["corpus.append_us_per_item"] = max(0, float64(t.SelfNS-tot["zoo.infer"].SelfNS)/float64(t.Count)/us)
	}
	d.v["obs.counter_ns"] = perCall("obs.counter", obsBatchOps)
	d.v["obs.hist_ns"] = perCall("obs.hist", obsBatchOps)
	d.v["obs.span_ns"] = perCall("obs.span", obsBatchOps)
	if t := tot["sim.run"]; t.Count > 0 {
		d.v["sim.wall_us_per_item"] = float64(t.SelfNS) / float64(d.r.items) / us
	}
}
