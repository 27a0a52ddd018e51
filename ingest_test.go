package ams

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
	"weak"

	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// externalTwin builds an external item carrying the same scene as
// held-out image i, with ground truth attached so recall is comparable —
// the evaluation-only configuration the parity test needs.
func externalTwin(i int) Item {
	scene := testSys.testStore.Scenes[i]
	ext := oracle.NewExternalItem(testSys.Zoo, scene)
	ext.SetTruth(testSys.testStore.Truth(i))
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
		if res.ItemID != items[i].id {
			t.Fatalf("item %d: ID %q, want %q", i, res.ItemID, items[i].id)
		}
		if len(res.ModelsRun) == 0 {
			t.Fatalf("item %d: no models executed", i)
		}
		if res.TimeSec > cfg.DeadlineSec+1e-9 {
			t.Fatalf("item %d: schedule %v s over the %v s deadline", i, res.TimeSec, cfg.DeadlineSec)
		}
	}
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
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
	if item.ext == nil || item.id != "composed" {
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
	cfg := serveCfg(1)
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, srv, cfg)
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
	results, stats, err := testSys.LabelBatch(ctx, testAgent, testItems(0, 1, 2, 3), Budget{DeadlineSec: 0.5}, 2)
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
	closeAtCleanup(t, srv, cfg)
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
	closeAtCleanup(t, srv, cfg)
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
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
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
	cfg := serveCfg(2)
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := srv.Results()
	if again := srv.Results(); again != results {
		t.Fatal("repeated Results() returned a different channel")
	}

	const testImgs = 6
	external := testSys.GenerateItems(3, 123)
	closed := make(chan error, 1)
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
		closed <- srv.Close()
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
	if err := errors.Join(<-closed, auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
}

// TestResubmittedExternalItemReusesExecutorSlot: submitting one external
// item repeatedly — the backoff-retry pattern ErrQueueFull invites —
// replays the memo the item carries: five submissions run the first
// one's inferences and no more.
func TestResubmittedExternalItemReusesExecutorSlot(t *testing.T) {
	cfg := serveCfg(2)
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, srv, cfg)
	item := testSys.GenerateItems(1, 31)[0]
	before := zoo.Inferences()
	var first int64
	for i := 0; i < 5; i++ {
		tk, err := srv.SubmitWait(context.Background(), item)
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, tk)
		if i == 0 {
			first = zoo.Inferences() - before
		}
	}
	if ran := zoo.Inferences() - before; first == 0 || ran != first {
		t.Fatalf("5 submissions of one item ran %d inferences, the first alone %d", ran, first)
	}
}

// TestServerRetainsNoExternalItem: a server keeps nothing of an external
// item once its result is delivered, so its memory on an unbounded
// external stream is bounded by what is in flight, not by what it has
// served. Without a corpus nothing holds the item; with one the corpus
// holds its own copy of the scene, evicted once committed, and finds a
// resubmission by content, not by the caller's pointer. The server stays
// open throughout.
func TestServerRetainsNoExternalItem(t *testing.T) {
	t.Run("no corpus", func(t *testing.T) {
		assertRetainsNone(t, serveCfg(2), 20)
	})
	t.Run("corpus", func(t *testing.T) {
		c, err := testSys.OpenCorpus(filepath.Join(t.TempDir(), "corpus.wal"), CorpusOptions{MaxResident: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { // after the server's close, registered later
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		})
		cfg := serveCfg(2)
		cfg.Corpus = c
		assertRetainsNone(t, cfg, 40)
	})
}

// assertRetainsNone serves n fresh external items through an open server
// built from cfg and checks that none is reachable after two
// collections.
func assertRetainsNone(t *testing.T, cfg ServeConfig, n int) {
	t.Helper()
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, srv, cfg)
	weaks := make([]weak.Pointer[oracle.ExternalItem], n)
	func() {
		var tickets []*ServeTicket
		for i, item := range testSys.GenerateItems(n, 47) {
			weaks[i] = weak.Make(item.ext)
			tk, err := srv.SubmitWait(context.Background(), item)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		for _, tk := range tickets {
			mustWait(t, tk)
		}
	}()
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, w := range weaks {
		if w.Value() != nil {
			alive++
		}
	}
	if alive > 0 {
		t.Fatalf("%d of %d served external items still reachable", alive, n)
	}
}

func TestServeRejectsEmptyTrace(t *testing.T) {
	if _, err := replayTrace(bg, testAgent, serveCfg(1), ServeTrace{}, nil); err == nil {
		t.Fatal("Replay accepted an empty trace")
	}
	if _, err := replayTrace(bg, testAgent, serveCfg(1), ServeTrace{ArrivalRateHz: 10}, nil); err == nil {
		t.Fatal("Replay accepted a trace without items")
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
		if err := errors.Join(err, auditClosed(srv, cfg)); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked behind an abandoned Results consumer")
	}
	if srv.Stats().ResultsDropped == 0 {
		t.Fatal("no results shed despite a consumer 12 items behind a 4-item window")
	}
}

// TestResultsRingKeepsNewestInOrder: a consumer that falls behind and
// then drains receives exactly the newest StatsWindow results, oldest
// first, and every other result is counted dropped — with one result
// shed and with most of the stream shed.
func TestResultsRingKeepsNewestInOrder(t *testing.T) {
	const window = 20
	for _, items := range []int{window + 1, 2*window + 10} {
		cfg := serveCfg(1)
		cfg.StatsWindow = window
		srv, err := testSys.NewServer(testAgent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results := srv.Results() // read only once every item is done
		for i := 0; i < items; i++ {
			tk, err := srv.SubmitWait(bg, testSys.TestItem(i%testSys.NumTestImages()).WithID(strconv.Itoa(i)))
			if err != nil {
				t.Fatal(err)
			}
			mustWait(t, tk)
		}
		if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
			t.Fatal(err)
		}
		var got []int
		for res := range results {
			n, err := strconv.Atoi(res.ItemID)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, n)
		}
		if len(got) != window {
			t.Fatalf("%d items: delivered %v, want the newest %d", items, got, window)
		}
		for j, n := range got {
			if n != items-window+j {
				t.Fatalf("%d items: delivered %v, want %d..%d", items, got, items-window, items-1)
			}
		}
		if d := srv.Stats().ResultsDropped; d != int64(items-window) {
			t.Fatalf("%d items: dropped %d results, want %d", items, d, items-window)
		}
	}
}

// TestShardedResultsBoundIsServerWide: StatsWindow bounds the undelivered
// results of the whole server, not of each shard — an abandoned
// subscription on two shards retains at most the window.
func TestShardedResultsBoundIsServerWide(t *testing.T) {
	const window, items = 4, 24
	cfg := serveCfg(2)
	cfg.Shards, cfg.ShardPlacement, cfg.StatsWindow = 2, "hash", window
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Results() // subscribe and never read
	for i := 0; i < items; i++ {
		tk, err := srv.SubmitWait(bg, testSys.TestItem(i))
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, tk)
	}
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	for _, ps := range st.PerShard {
		// Both shards overflow a window of their own, so a per-shard bound
		// would retain more than the server-wide one allows.
		if ps.Completed < window+2 {
			t.Fatalf("shard %d completed %d items, want >= %d for the bound to bite", ps.Shard, ps.Completed, window+2)
		}
	}
	if want := int64(items - window); st.ResultsDropped < want {
		t.Fatalf("dropped %d results, want >= %d: more than the window retained", st.ResultsDropped, want)
	}
}

// TestResultsConcurrentConsumer: a reader racing the workers over a
// two-result window loses results only by counted drops. Each of four
// submitters serves its own sequence one item at a time, so its items
// complete in order: the reader must see every sequence strictly
// increasing with no duplicate, and what it received plus what was
// dropped must be every completion.
func TestResultsConcurrentConsumer(t *testing.T) {
	const submitters, perSubmitter = 4, 25
	cfg := serveCfg(4)
	cfg.StatsWindow = 2
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := srv.Results()
	received := make(chan int, 1)
	go func() {
		last := make([]int, submitters)
		for i := range last {
			last[i] = -1
		}
		n := 0
		for res := range results {
			var w, k int
			if _, err := fmt.Sscanf(res.ItemID, "%d-%d", &w, &k); err != nil || w < 0 || w >= submitters {
				t.Errorf("result with unknown id %q", res.ItemID)
				continue
			}
			if k <= last[w] {
				t.Errorf("submitter %d: received item %d after item %d", w, k, last[w])
			}
			last[w] = k
			n++
		}
		received <- n
	}()
	var wg sync.WaitGroup
	for w := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perSubmitter {
				item := testSys.TestItem((w*perSubmitter + k) % testSys.NumTestImages()).WithID(fmt.Sprintf("%d-%d", w, k))
				tk, err := srv.SubmitWait(bg, item)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tk.Wait(bg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
	n := <-received
	st := srv.Stats()
	if st.Completed != submitters*perSubmitter {
		t.Fatalf("completed %d items, want %d", st.Completed, submitters*perSubmitter)
	}
	if int64(n)+st.ResultsDropped != st.Completed {
		t.Fatalf("received %d + dropped %d results, want the %d completed", n, st.ResultsDropped, st.Completed)
	}
}

// TestResultsStartsNoGoroutine: a subscription starts no goroutine at
// any shard count, and the stream ends once Close has drained the
// server. Results after Close returns a closed channel, and repeated
// calls share one.
func TestResultsStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := serveCfg(4)
	cfg.Shards = 4
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	results := srv.Results()
	if again := srv.Results(); again != results {
		t.Fatal("repeated Results() returned a different channel")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("after Results: %d goroutines, want at most %d", n, base)
	}
	tk, err := srv.SubmitWait(bg, testSys.TestItem(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range results {
		n++
	}
	if n != 1 {
		t.Fatalf("stream delivered %d results, want 1", n)
	}
	mustWait(t, tk)
	waitGoroutines(t, "after Close and drain", before)

	late, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(late.Close(), auditClosed(late, cfg)); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-late.Results():
		if ok {
			t.Fatal("Results after Close delivered a result")
		}
	default:
		t.Fatal("Results after Close returned an open channel")
	}
}

// waitGoroutines polls runtime.NumGoroutine until it is at most limit,
// failing after a second.
func waitGoroutines(t *testing.T, when string, limit int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for n := runtime.NumGoroutine(); n > limit; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", when, n, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateItemsNonPositiveCount: asking for no items yields none.
func TestGenerateItemsNonPositiveCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if items := testSys.GenerateItems(n, 1); len(items) != 0 {
			t.Fatalf("GenerateItems(%d) returned %d items", n, len(items))
		}
	}
}
