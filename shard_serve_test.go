package ams

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ams/internal/shard"
	"ams/internal/zoo"
)

// shardedCfg is the fast sharded serving configuration these tests
// share; Corpus is wired per test.
func shardedCfg(shards, workers int) ServeConfig {
	cfg := corpusCfg(workers)
	cfg.Shards = shards
	cfg.ShardPlacement = "affinity"
	cfg.ShardSteal = true
	return cfg
}

// TestShardedServerEndToEnd serves a mixed stream through a four-shard
// server over a segmented journal and checks the server-wide stats add up,
// every segment journal exists, and the per-shard breakdown is
// consistent with the server-wide view.
func TestShardedServerEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus.d")
	c, err := testSys.OpenCorpusDir(dir, 4, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedCfg(4, 8)
	cfg.Corpus = c
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(24, 42)
	var tks []*ServeTicket
	for i, it := range items {
		tk, err := srv.SubmitWait(bg, it)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tks = append(tks, tk)
	}
	// Built-in test items ride the same router as external ones.
	for i := 0; i < 8; i++ {
		tk, err := srv.SubmitWait(bg, testSys.TestItem(i))
		if err != nil {
			t.Fatalf("submit test item %d: %v", i, err)
		}
		tks = append(tks, tk)
	}
	for i, tk := range tks {
		if _, err := tk.Wait(bg); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats report %d shards (%d breakdowns), want 4", st.Shards, len(st.PerShard))
	}
	if st.Completed != int64(len(tks)) {
		t.Fatalf("completed %d of %d", st.Completed, len(tks))
	}
	var perShardItems int64
	for _, ps := range st.PerShard {
		perShardItems += ps.Completed
	}
	if perShardItems != st.Completed {
		t.Fatalf("per-shard completions sum to %d, the server says %d", perShardItems, st.Completed)
	}
	if st.RecallItems == 0 {
		t.Fatal("no recall-bearing item reached the stats window")
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, "journal-"+string(rune('0'+i))+".log")); err != nil {
			t.Errorf("segment %d journal missing: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCorpusReplayZeroReruns is the sharded crash-recovery
// acceptance probe: a four-segment journaled run, reopened without a
// shard count (the manifest carries it), recovers every committed item
// across all segments without a single model re-run.
func TestShardedCorpusReplayZeroReruns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus.d")
	c, err := testSys.OpenCorpusDir(dir, 4, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(16, 7)
	original := make(map[string]*Result, len(items))
	func() {
		cfg := shardedCfg(4, 8)
		cfg.Corpus = c
		srv, err := testSys.NewServer(testAgent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tks []*ServeTicket
		for _, it := range items {
			tk, err := srv.SubmitWait(bg, it)
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
			t.Fatal(err)
		}
		for _, tk := range tks {
			res, err := tk.Wait(bg)
			if err != nil {
				t.Fatal(err)
			}
			original[res.ItemID] = res
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Reopen with segments=0: the manifest remembers the partitioning.
	c2, err := testSys.OpenCorpusDir(dir, 0, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Segments(); got != 4 {
		t.Fatalf("manifest reopen found %d segments, want 4", got)
	}
	before := zoo.Inferences()
	rep, err := testSys.ReplayCorpus(bg, testAgent, shardedCfg(4, 8), c2)
	if err != nil {
		t.Fatal(err)
	}
	if ran := zoo.Inferences() - before; ran != 0 {
		t.Fatalf("replaying committed items ran %d model inferences; want 0", ran)
	}
	if len(rep.Recovered) != len(items) || len(rep.Relabeled) != 0 {
		t.Fatalf("recovered %d, relabeled %d; want %d, 0", len(rep.Recovered), len(rep.Relabeled), len(items))
	}
	if len(rep.Segments) != 4 {
		t.Fatalf("replay reported %d segments, want 4", len(rep.Segments))
	}
	segSum := 0
	for _, sr := range rep.Segments {
		segSum += sr.Recovered + sr.Relabeled
	}
	if segSum != len(items) {
		t.Fatalf("per-segment counts sum to %d, want %d", segSum, len(items))
	}
	for _, res := range rep.Recovered {
		want, ok := original[res.ItemID]
		if !ok {
			t.Fatalf("recovered unknown item %q", res.ItemID)
		}
		if !sameResult(res, want) {
			t.Fatalf("item %q recovered differently:\n  was  %+v\n  got  %+v", res.ItemID, want, res)
		}
	}
}

// TestReplayCommitsIntoTheOwningSegment reopens a two-segment corpus
// whose items, in both segments, were admitted and some partly labeled
// but never committed, and replays it through a stealing two-shard
// server. Every item's tag hashes home to the other segment's shard, so
// items run away from the segment that holds them (a steal can only
// bring one back). Each item must be labeled as its own scene is, each
// segment's journal must gain one commit per item of its own and none
// for another's, the zoo must run only the models whose outputs never
// reached a journal, and the report must count each relabeled item for
// the segment that holds it.
func TestReplayCommitsIntoTheOwningSegment(t *testing.T) {
	const nseg = 2
	dir := filepath.Join(t.TempDir(), "corpus.d")
	c, err := testSys.OpenCorpusDir(dir, nseg, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedCfg(nseg, 4)
	cfg.ShardPlacement = "hash"
	cfg.Telemetry, cfg.TraceCapacity = true, 64
	perSeg := []int{3, 5} // unequal, so a commit filed in the wrong segment shows
	items := testSys.GenerateItems(perSeg[0]+perSeg[1], 91)
	owner := map[string]int{}          // tag -> the segment that admitted it
	want := map[string]*Result{}       // tag -> the item labeled on its own
	journaled := map[string][]string{} // tag -> models whose outputs reached the journal
	next := 0
	for seg, n := range perSeg {
		for j := 0; j < n; j++ {
			tag := ""
			for k := 0; tag == "" || shard.ShardFor(testSys.itemKey(Item{id: tag}, nil), nseg) == seg; k++ {
				tag = fmt.Sprintf("crashed/%d/%d/%d", seg, j, k)
			}
			item := items[next].WithID(tag)
			next++
			owner[tag] = seg
			if want[tag], err = testSys.LabelWith(bg, cfg.Policy, testAgent, item, Budget{DeadlineSec: cfg.DeadlineSec}); err != nil {
				t.Fatal(err)
			}
			seq, err := c.segs[seg].AdmitWait(bg, *item.ext.Scene(), tag)
			if err != nil {
				t.Fatal(err)
			}
			if (seg+j)%2 == 0 { // a crash mid-schedule: its first two outputs journaled
				for _, name := range want[tag].ModelsRun[:2] {
					c.segs[seg].Item(seq).Output(slices.IndexFunc(testSys.Zoo.Models, func(m *zoo.Model) bool { return m.Name == name }))
					journaled[tag] = append(journaled[tag], name)
				}
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := testSys.OpenCorpusDir(dir, 0, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := zoo.Inferences()
	rep, srv, err := testSys.replay(bg, testAgent, cfg, c2)
	if err != nil {
		t.Fatal(err)
	}
	ran := zoo.Inferences() - before
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	if len(rep.Recovered) != 0 || len(rep.Relabeled) != len(owner) {
		t.Fatalf("recovered %d, relabeled %d; want 0, %d", len(rep.Recovered), len(rep.Relabeled), len(owner))
	}
	for seg, sr := range rep.Segments {
		if sr.Segment != seg || sr.Recovered != 0 || sr.Relabeled != perSeg[seg] {
			t.Errorf("segment %d reported %+v, want %d relabeled", seg, sr, perSeg[seg])
		}
	}
	var fresh int64
	away := 0
	for _, res := range rep.Relabeled {
		seg, ok := owner[res.ItemID]
		if !ok {
			t.Fatalf("relabeled unknown item %q", res.ItemID)
		}
		if !sameResult(res, want[res.ItemID]) {
			t.Errorf("item %q relabeled running %v, not as labeled on its own (%v)", res.ItemID, res.ModelsRun, want[res.ItemID].ModelsRun)
		}
		fresh += int64(len(res.ModelsRun) - len(journaled[res.ItemID]))
		tr, ok := srv.tracer.ByTag(res.ItemID)
		if !ok {
			t.Fatalf("no trace for %q", res.ItemID)
		}
		if tr.Home == seg {
			t.Errorf("item %q of segment %d was placed on shard %d, its tag's home is the other", res.ItemID, seg, tr.Home)
		}
		if tr.Shard != seg {
			away++
		}
	}
	if away == 0 {
		t.Fatal("every item ran on its own segment's shard: the test never replayed across shards")
	}
	if ran != fresh || fresh == 0 {
		t.Errorf("replay ran %d inferences; want the %d (> 0) executed models whose outputs were never journaled", ran, fresh)
	}
	for seg, n := range perSeg {
		_, _, commits := journalRecordCounts(t, filepath.Join(dir, fmt.Sprintf("journal-%d.log", seg)))
		want := map[[2]uint64]int{}
		for seq := range n {
			want[[2]uint64{uint64(seq)}] = 1
		}
		if !maps.Equal(commits, want) {
			t.Errorf("segment %d journal commits %v, want one for each of its %d items", seg, commits, n)
		}
	}
	t.Logf("%d of %d items ran away from their segment's shard; %d steals", away, len(owner), srv.Stats().Steals)
}

// TestShardedConfigValidation exercises the sharded NewServer contract
// checks that have no single-shard counterpart.
// TestShardedQueueCapBoundsTheRouter checks ServeConfig.QueueCap reaches
// the queue that sheds on a sharded server, each shard server's own:
// with 32 slots per shard, a non-blocking burst of 40 items is admitted
// whole. (With the shards left on their 2-per-worker default the same
// burst sheds.)
func TestShardedQueueCapBoundsTheRouter(t *testing.T) {
	cfg := corpusCfg(2)
	cfg.Shards = 2
	cfg.QueueCap = 64
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := srv.Submit(testSys.TestItem(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != 40 || st.Rejected != 0 {
		t.Errorf("completed %d of 40 with %d rejects", st.Completed, st.Rejected)
	}
}

// TestShardedShedsCountOnce overloads a two-shard server open-loop: a
// shed at either shard's queue is the shard server's own Submit shed, so
// ams_items_shed_total and ServeStats.Rejected are one count.
func TestShardedShedsCountOnce(t *testing.T) {
	cfg := corpusCfg(2)
	cfg.Shards, cfg.QueueCap, cfg.Telemetry = 2, 2, true
	cfg.TimeScale = 0.05
	trace := ServeTrace{ArrivalRateHz: 200, Items: 120, Seed: 3, OpenLoop: true}
	st, err := replayTrace(bg, testAgent, cfg, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	shed := -1.0
	for _, m := range st.Telemetry {
		if m.Name == "ams_items_shed_total" {
			shed = m.Value
		}
	}
	if st.Rejected == 0 || shed != float64(st.Rejected) {
		t.Fatalf("ams_items_shed_total %v, ServeStats.Rejected %d: want one positive count", shed, st.Rejected)
	}
	if st.Completed+st.Rejected != int64(trace.Items) {
		t.Errorf("completed %d + shed %d != %d arrivals", st.Completed, st.Rejected, trace.Items)
	}
}

// TestShardedDispatchFailureReachesWait makes an item's resolution, on
// the worker that takes it, fail — its shard's journal segment has
// closed — and checks the error comes back from the caller's own ticket,
// is counted once in ServeStats.Failed, and the server keeps serving and
// closes cleanly. A one-shard server resolves on the worker too, so its
// SubmitWait admits the item instead of failing it.
func TestShardedDispatchFailureReachesWait(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := testSys.OpenCorpusDir(filepath.Join(t.TempDir(), "corpus.d"), shards, CorpusOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := shardedCfg(shards, 2)
			cfg.Corpus = c
			srv, err := testSys.NewServer(testAgent, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			tk, err := srv.SubmitWait(bg, testSys.GenerateItems(1, 3)[0])
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if res, err := tk.Wait(bg); err == nil {
				t.Fatalf("Wait returned %+v for an item whose admission could not be journaled", res)
			}
			if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
				t.Fatal(err)
			}
			if st := srv.Stats(); st.Completed != 0 || st.Failed != 1 {
				t.Errorf("completed %d and failed %d items, want 0 and 1", st.Completed, st.Failed)
			}
		})
	}
}
