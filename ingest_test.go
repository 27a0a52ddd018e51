package ams

import (
	"context"
	"errors"
	"testing"
	"time"

	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/sim"
)

// externalTwin builds an external item carrying the same scene as
// held-out image i, with ground truth attached so recall is comparable —
// the evaluation-only configuration the parity test needs.
func externalTwin(i int) Item {
	scene := testSys.testStore.Scenes[i]
	ext := oracle.NewExternalItem(testSys.Zoo, scene)
	ext.SetTruth(oracle.DeriveTruth(testSys.Zoo, &scene))
	return Item{id: "twin", image: -1, ext: ext, valid: true}
}

// TestOnDemandParityWithOracle is the acceptance parity check: a
// test-split scene submitted through the on-demand ingestion path must
// yield bit-identical labels, executed-model order, and recall to the
// index-based oracle path, under every registry policy at fixed seeds
// and every budget shape.
func TestOnDemandParityWithOracle(t *testing.T) {
	budgets := []Budget{
		{},
		{DeadlineSec: 0.5},
		{DeadlineSec: 0.8, MemoryGB: 8},
	}
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.WithSeed(17)
		for _, b := range budgets {
			for _, img := range []int{0, 3, 7} {
				want, err := testSys.LabelWith(bg, p, testAgent, testSys.TestItem(img), b)
				if err != nil {
					t.Fatalf("%s %+v oracle path: %v", name, b, err)
				}
				got, err := testSys.LabelWith(bg, p, testAgent, externalTwin(img), b)
				if err != nil {
					t.Fatalf("%s %+v on-demand path: %v", name, b, err)
				}
				if !got.HasRecall {
					t.Fatalf("%s %+v: truth-carrying external item lost its recall", name, b)
				}
				if got.Recall != want.Recall {
					t.Fatalf("%s %+v image %d: on-demand recall %v != oracle %v",
						name, b, img, got.Recall, want.Recall)
				}
				if got.TimeSec != want.TimeSec {
					t.Fatalf("%s %+v image %d: time %v != %v", name, b, img, got.TimeSec, want.TimeSec)
				}
				if len(got.ModelsRun) != len(want.ModelsRun) {
					t.Fatalf("%s %+v image %d: ran %v, oracle ran %v",
						name, b, img, got.ModelsRun, want.ModelsRun)
				}
				for i := range want.ModelsRun {
					if got.ModelsRun[i] != want.ModelsRun[i] {
						t.Fatalf("%s %+v image %d: schedule diverges at %d: %v vs %v",
							name, b, img, i, got.ModelsRun, want.ModelsRun)
					}
				}
				if len(got.Labels) != len(want.Labels) {
					t.Fatalf("%s %+v image %d: %d labels vs %d",
						name, b, img, len(got.Labels), len(want.Labels))
				}
				for i := range want.Labels {
					if got.Labels[i] != want.Labels[i] {
						t.Fatalf("%s %+v image %d: label %d differs: %+v vs %+v",
							name, b, img, i, got.Labels[i], want.Labels[i])
					}
				}
			}
		}
	}
}

// TestServerLabelsNeverSeenItemUnderMemoryBudget: an item the oracle has
// never seen is labeled end-to-end by the real server with the memory
// budget enforced — the production ingestion path.
func TestServerLabelsNeverSeenItemUnderMemoryBudget(t *testing.T) {
	cfg := serveCfg(2)
	cfg.MemoryGB = 6
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(6, 1001)
	var tickets []*ServeTicket
	for _, item := range items {
		tk, err := srv.SubmitWait(context.Background(), item)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		res := mustWait(t, tk)
		if res.HasRecall {
			t.Fatalf("item %d: external item claims ground-truth recall", i)
		}
		if res.Image != -1 {
			t.Fatalf("item %d: external item reports image index %d", i, res.Image)
		}
		if res.ItemID != items[i].ID() {
			t.Fatalf("item %d: ID %q, want %q", i, res.ItemID, items[i].ID())
		}
		if len(res.ModelsRun) == 0 {
			t.Fatalf("item %d: no models executed", i)
		}
		if res.TimeSec > cfg.DeadlineSec+1e-9 {
			t.Fatalf("item %d: schedule %v s over the %v s deadline", i, res.TimeSec, cfg.DeadlineSec)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if stats.PeakMemMB <= 0 || stats.PeakMemMB > cfg.MemoryGB*1024+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, %v]", stats.PeakMemMB, cfg.MemoryGB*1024)
	}
	if stats.RecallItems != 0 {
		t.Fatalf("external-only run averaged recall over %d items, want 0", stats.RecallItems)
	}
	if stats.Items != len(items) {
		t.Fatalf("completed %d items, want %d", stats.Items, len(items))
	}
}

// TestExternalItemMemoSharedAcrossSurfaces: an external item's lazily
// computed outputs are memoized on the item, so relabeling it (or
// labeling it on another surface) replays the memo — bit-identical
// results by construction.
func TestExternalItemMemoSharedAcrossSurfaces(t *testing.T) {
	item := testSys.GenerateItems(1, 55)[0]
	first, err := testSys.Label(bg, testAgent, item, Budget{DeadlineSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	second, err := testSys.Label(bg, testAgent, item, Budget{DeadlineSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.ModelsRun) != len(second.ModelsRun) || len(first.Labels) != len(second.Labels) {
		t.Fatalf("relabeling the same item diverged: %+v vs %+v", first, second)
	}
	for i := range first.Labels {
		if first.Labels[i] != second.Labels[i] {
			t.Fatalf("label %d differs across relabelings", i)
		}
	}
}

// --- SceneSpec composition -----------------------------------------------

func TestComposeItemValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec SceneSpec
	}{
		{"unknown place", SceneSpec{Place: "place/nowhere"}},
		{"wrong task", SceneSpec{Place: "object/dog"}},
		{"unknown object", SceneSpec{Objects: []string{"object/unobtainium"}}},
		{"emotion without face", SceneSpec{Emotion: "emotion/happy"}},
		{"gender without face", SceneSpec{Gender: "gender/female"}},
		{"action without person", SceneSpec{Action: "action/running"}},
		{"negative persons", SceneSpec{Persons: -1}},
	} {
		if _, err := testSys.ComposeItem(tc.spec); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestComposeItemLabelsEndToEnd: a composed scene's described content
// surfaces in the emitted labels.
func TestComposeItemLabelsEndToEnd(t *testing.T) {
	item, err := testSys.ComposeItem(SceneSpec{
		ID:    "composed",
		Place: "place/park",
		Dog:   "dog/husky",
		Seed:  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !item.External() || item.ID() != "composed" {
		t.Fatalf("composed item misdescribed: %+v", item)
	}
	res, err := testSys.Label(bg, testAgent, item, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasRecall {
		t.Fatal("composed item claims ground-truth recall")
	}
	var sawDogish bool
	for _, l := range res.Labels {
		if l.Name == "object/dog" || l.Name == "dog/husky" {
			sawDogish = true
		}
	}
	if !sawDogish {
		t.Fatalf("no dog-related label surfaced from the composed scene: %v", res.Labels)
	}
}

func TestZeroItemRejectedEverywhere(t *testing.T) {
	if _, err := testSys.Label(bg, testAgent, Item{}, Budget{}); err == nil {
		t.Fatal("Label accepted the zero Item")
	}
	if _, _, err := testSys.LabelBatch(bg, testAgent, []Item{{}}, Budget{}, 1); err == nil {
		t.Fatal("LabelBatch accepted the zero Item")
	}
	srv, err := testSys.NewServer(testAgent, serveCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(Item{}); err == nil {
		t.Fatal("Submit accepted the zero Item")
	}
}

// --- Context cancellation -------------------------------------------------

// cancelAfter cancels a context once n selections have been handed out,
// simulating a caller abandoning an item mid-schedule.
type cancelAfter struct {
	sim.Policy
	n      int
	cancel context.CancelFunc
}

func (p *cancelAfter) Next(tr *oracle.Tracker, c sim.Constraints) int {
	if p.n == 0 {
		p.cancel()
	}
	p.n--
	return p.Policy.Next(tr, c)
}

// TestLabelCancelledMidScheduleReturnsPartial: cancelling the context
// between selections aborts the remaining schedule; the models already
// run and their labels stand as the partial result, alongside ctx.Err().
func TestLabelCancelledMidScheduleReturnsPartial(t *testing.T) {
	full, err := testSys.Label(bg, testAgent, testSys.TestItem(0), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.ModelsRun) <= 3 {
		t.Fatalf("image 0 runs only %d models; test needs a longer schedule", len(full.ModelsRun))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const before = 2 // cancel fires while handing out the 3rd selection
	probe := Policy{name: "cancel-probe", needsAgent: true,
		build: func(s *System, agent *Agent, _ uint64, _ *sched.SharedCache) sim.Policy {
			return &cancelAfter{
				Policy: sched.NewQGreedy(agent.workerPredictor(nil), s.Zoo),
				n:      before,
				cancel: cancel,
			}
		}}
	res, err := testSys.LabelWith(ctx, probe, testAgent, testSys.TestItem(0), Budget{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	// The 3rd selection was already handed out when cancel fired; the
	// 4th ask is the first the wrapper blocks.
	if got := len(res.ModelsRun); got != before+1 {
		t.Fatalf("partial schedule ran %d models, want %d", got, before+1)
	}
	if len(res.Labels) == 0 {
		t.Fatal("partial result carries no labels")
	}
}

// TestLabelPreCancelledRunsNothing: an already-cancelled context labels
// nothing and reports the cancellation.
func TestLabelPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := testSys.Label(ctx, testAgent, testSys.TestItem(0), Budget{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.ModelsRun) != 0 {
		t.Fatalf("pre-cancelled Label ran %+v", res)
	}
}

// TestLabelBatchCancellationKeepsCompleted: cancelling a batch returns
// ctx.Err() with the already-labeled items intact and unstarted slots
// nil.
func TestLabelBatchCancellationKeepsCompleted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats, err := testSys.LabelBatch(ctx, testAgent, testSys.TestItems(0, 1, 2, 3), Budget{DeadlineSec: 0.5}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 4 {
		t.Fatalf("result slots %d, want 4 (nil for unstarted)", len(results))
	}
	if stats.Processed > 4 {
		t.Fatalf("processed %d of 4", stats.Processed)
	}
}

// TestSubmitWaitCancelledUnderBackpressure: a blocked SubmitWait whose
// context is cancelled returns ctx.Err(), the bounded queue untouched.
func TestSubmitWaitCancelledUnderBackpressure(t *testing.T) {
	cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, QueueCap: 1, TimeScale: 0.05}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Occupy the worker and fill the one-slot queue: the second submit
	// gets in once the worker has dequeued the first.
	if _, err := srv.Submit(testSys.TestItem(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitWait(bg, testSys.TestItem(3)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := srv.SubmitWait(ctx, testSys.TestItem(3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitWait = %v, want context.DeadlineExceeded", err)
	}
}

// TestTicketWaitHonorsContext: Wait abandons on cancellation without
// losing the item — a later Wait still returns it.
func TestTicketWaitHonorsContext(t *testing.T) {
	cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.05}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.Submit(testSys.TestItem(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want context.DeadlineExceeded", err)
	}
	if res := mustWait(t, tk); len(res.ModelsRun) == 0 {
		t.Fatal("item lost after an abandoned Wait")
	}
}

// TestCloseDrainsInFlightExternalItem: Close during an in-flight
// external item completes it cleanly (run with -race).
func TestCloseDrainsInFlightExternalItem(t *testing.T) {
	cfg := ServeConfig{Workers: 2, DeadlineSec: 0.5, TimeScale: 0.02}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(4, 77)
	var tickets []*ServeTicket
	for _, item := range items {
		tk, err := srv.Submit(item)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// Close while schedules are mid-flight (each item sleeps ~10 ms).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		res := mustWait(t, tk)
		if len(res.ModelsRun) == 0 {
			t.Fatalf("item %d drained with no models executed", i)
		}
		if res.HasRecall {
			t.Fatalf("item %d: external item claims recall", i)
		}
	}
	if got := srv.Stats().Completed; got != int64(len(items)) {
		t.Fatalf("completed %d, want %d", got, len(items))
	}
}

// --- Results streaming ----------------------------------------------------

// TestServerResultsStream: every completion — oracle-backed and external
// alike — is delivered exactly once on the Results channel, which closes
// after Close.
func TestServerResultsStream(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, serveCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	results := srv.Results()
	if again := srv.Results(); again != results {
		t.Fatal("repeated Results() returned a different channel")
	}

	const testImgs = 6
	external := testSys.GenerateItems(3, 123)
	go func() {
		for i := 0; i < testImgs; i++ {
			if _, err := srv.SubmitWait(context.Background(), testSys.TestItem(i)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		for _, item := range external {
			if _, err := srv.SubmitWait(context.Background(), item); err != nil {
				t.Errorf("submit external: %v", err)
			}
		}
		srv.Close()
	}()

	var oracleBacked, externalSeen int
	for res := range results {
		if res.HasRecall {
			oracleBacked++
			if res.Image < 0 {
				t.Fatalf("oracle-backed result lost its image index: %+v", res)
			}
		} else {
			externalSeen++
			if res.Image != -1 || res.ItemID == "" {
				t.Fatalf("external result misdescribed: %+v", res)
			}
		}
	}
	if oracleBacked != testImgs || externalSeen != len(external) {
		t.Fatalf("stream delivered %d oracle-backed + %d external, want %d + %d",
			oracleBacked, externalSeen, testImgs, len(external))
	}
}

// TestResubmittedExternalItemReusesExecutorSlot: submitting one external
// item repeatedly — the backoff-retry pattern ErrQueueFull invites —
// must not grow the server's executor per attempt.
func TestResubmittedExternalItemReusesExecutorSlot(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, serveCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	item := testSys.GenerateItems(1, 31)[0]
	base := srv.shards[0].ingest.NumItems()
	for i := 0; i < 5; i++ {
		tk, err := srv.SubmitWait(context.Background(), item)
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, tk)
	}
	if got := srv.shards[0].ingest.NumItems(); got != base+1 {
		t.Fatalf("5 submissions of one item grew the executor by %d slots, want 1", got-base)
	}
}

func TestServeRejectsEmptyTrace(t *testing.T) {
	if _, err := testSys.Serve(bg, testAgent, serveCfg(1), ServeTrace{}, nil); err == nil {
		t.Fatal("Serve accepted an empty trace")
	}
	if _, err := testSys.Serve(bg, testAgent, serveCfg(1), ServeTrace{ArrivalRateHz: 10}, nil); err == nil {
		t.Fatal("Serve accepted a trace without items")
	}
}

// TestServerResultsAbandonedConsumerDoesNotDeadlock: an abandoned
// subscription must not block workers or Close, and its undelivered
// buffer is bounded — the oldest results are shed and counted once the
// consumer falls a stats window behind.
func TestServerResultsAbandonedConsumerDoesNotDeadlock(t *testing.T) {
	cfg := serveCfg(2)
	cfg.StatsWindow = 4 // tiny window so the shed path actually runs
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Results() // subscribe and never read
	for i := 0; i < 12; i++ {
		tk, err := srv.SubmitWait(context.Background(), testSys.TestItem(i))
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, tk) // completions pile up behind the dead consumer
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked behind an abandoned Results consumer")
	}
	if srv.Stats().ResultsDropped == 0 {
		t.Fatal("no results shed despite a consumer 12 items behind a 4-item window")
	}
}
