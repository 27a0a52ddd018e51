package ams

import (
	"os"
	"path/filepath"
	"testing"

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
// server over a segmented journal and checks the merged stats add up,
// every segment journal exists, and the per-shard breakdown is
// consistent with the merged view.
func TestShardedServerEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus.d")
	c, err := testSys.OpenCorpusDir(dir, 4, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := testSys.NewServer(testAgent, func() ServeConfig {
		cfg := shardedCfg(4, 8)
		cfg.Corpus = c
		return cfg
	}())
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
	if err := srv.Close(); err != nil {
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
		t.Fatalf("per-shard completions sum to %d, merged says %d", perShardItems, st.Completed)
	}
	if st.RecallItems == 0 {
		t.Fatal("no recall-bearing item reached the merged stats")
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
		if err := srv.Close(); err != nil {
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

// TestShardedConfigValidation exercises the sharded NewServer contract
// checks that have no single-shard counterpart.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := testSys.NewServer(testAgent, func() ServeConfig {
		cfg := shardedCfg(4, 2) // fewer workers than shards
		return cfg
	}()); err == nil {
		t.Error("NewServer accepted fewer workers than shards")
	}
	if _, err := testSys.NewServer(testAgent, ServeConfig{
		Workers: 4, Policy: PolicyAlgorithm1, DeadlineSec: 0.4, TimeScale: 0.001,
		Shards: 2, ShardPlacement: "zigzag",
	}); err == nil {
		t.Error("NewServer accepted an unknown placement")
	}
	// A sharded server needs a matching segment count.
	dir := filepath.Join(t.TempDir(), "corpus.d")
	c, err := testSys.OpenCorpusDir(dir, 2, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := testSys.NewServer(testAgent, func() ServeConfig {
		cfg := shardedCfg(4, 8)
		cfg.Corpus = c
		return cfg
	}()); err == nil {
		t.Error("NewServer accepted a 2-segment corpus for a 4-shard server")
	}
}

// TestShardedQueueCapBoundsTheRouter checks ServeConfig.QueueCap reaches
// the layer that sheds on a sharded server: with 32 pending slots per
// shard, a non-blocking burst of 40 items is admitted whole. (With the
// router left on its 2-per-worker default the same burst sheds.)
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != 40 || st.Rejected != 0 {
		t.Errorf("completed %d of 40 with %d rejects", st.Completed, st.Rejected)
	}
}

// TestShardedDispatchFailureReachesWait makes an item's dispatch-time
// resolution fail — its shard's journal segment has closed — and checks
// the error comes back from the caller's own ticket while the server
// keeps serving and closes cleanly.
func TestShardedDispatchFailureReachesWait(t *testing.T) {
	c, err := testSys.OpenCorpusDir(filepath.Join(t.TempDir(), "corpus.d"), 2, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedCfg(2, 2)
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != 0 {
		t.Errorf("completed %d items, want 0", st.Completed)
	}
}
