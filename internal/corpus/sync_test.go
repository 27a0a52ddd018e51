package corpus

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ams/internal/zoo"
)

// waitStats polls the corpus until pred accepts its stats or a deadline
// passes — the group-commit flusher is asynchronous by design.
func waitStats(t *testing.T, c *Corpus, what string, pred func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats never converged: %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitSyncEveryN checks the record-count trigger: once at
// least N records pile up, the flusher syncs them as one batch, and the
// unsynced tail stays below N.
func TestGroupCommitSyncEveryN(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{SyncEveryN: 4})
	populate(t, c, 8, []int{0, 2}, 8)
	waitStats(t, c, "first round", func(st Stats) bool {
		return st.Syncs >= 1 && st.Unsynced < 4
	})
	// A second burst must re-arm the trigger: group commit is a loop,
	// not a one-shot.
	prev := c.Stats().Syncs
	for i := 8; i < 16; i++ {
		seq, err := c.AdmitWait(context.Background(), ds.Scenes[i], "item")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		c.Begin(seq)
		if err := c.Commit(seq, nil, 100); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	waitStats(t, c, "second round", func(st Stats) bool {
		return st.Syncs > prev && st.Unsynced < 4
	})
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestGroupCommitSyncEveryMS checks the timer trigger: a record tail
// smaller than any count trigger still reaches the disk within the
// window.
func TestGroupCommitSyncEveryMS(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{SyncEveryMS: 2})
	populate(t, c, 1, []int{0}, 1)
	waitStats(t, c, "SyncEveryMS", func(st Stats) bool {
		return st.Syncs >= 1 && st.Unsynced == 0
	})
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCloseSyncsTail: without any flusher configured, Close itself must
// leave no record unsynced.
func TestCloseSyncsTail(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	populate(t, c, 2, []int{0}, 2)
	if st := c.Stats(); st.Syncs != 0 {
		t.Fatalf("unconfigured corpus ran %d group syncs", st.Syncs)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c2 := mustOpen(t, path, Options{})
	defer c2.Close()
	if c2.Stats().Items != 2 {
		t.Fatalf("reopened corpus has %d items, want 2", c2.Stats().Items)
	}
}

// TestOpenDirManifest covers the segmented layout: creation writes the
// manifest and one journal per segment, a reopen with n == 0 recovers
// the count, and a contradicting count is refused.
func TestOpenDirManifest(t *testing.T) {
	dir := t.TempDir()
	segs, err := OpenDir(z, dir, 3, Options{})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("OpenDir returned %d segments, want 3", len(segs))
	}
	for i := range segs {
		if _, err := os.Stat(SegmentPath(dir, i)); err != nil {
			t.Errorf("segment %d journal: %v", i, err)
		}
	}
	for _, s := range segs {
		if err := s.Close(); err != nil {
			t.Fatalf("close segment: %v", err)
		}
	}

	segs, err = OpenDir(z, dir, 0, Options{})
	if err != nil {
		t.Fatalf("reopen with manifest count: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("manifest reopen returned %d segments, want 3", len(segs))
	}
	for _, s := range segs {
		s.Close()
	}

	if _, err := OpenDir(z, dir, 2, Options{}); err == nil || !strings.Contains(err.Error(), "holds 3 segments") {
		t.Fatalf("re-partitioning in place = %v, want segment-count error", err)
	}
}

// TestCompactionSwapsHandleUnderTheFlusher: with a compaction after every
// commit and the group-commit flusher syncing after every record, the
// flusher keeps syncing handles the compactions close and replace. No
// sync of a replaced handle may stick as an error or uncount records,
// the flusher still syncs the last handle swapped in, and a reopen
// replays every committed item without inference.
func TestCompactionSwapsHandleUnderTheFlusher(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{SnapshotEvery: 1, SyncEveryN: 1, SyncEveryMS: 1})
	const workers, perWorker = 4, 50
	want := make([]map[int]zoo.Output, workers) // per worker: seq -> output
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		want[w] = make(map[int]zoo.Output)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq, err := c.AdmitWait(context.Background(), ds.Scenes[(w*perWorker+i)%len(ds.Scenes)], fmt.Sprint(w, "/", i))
				if err != nil {
					t.Error(err)
					return
				}
				c.Begin(seq)
				want[w][seq] = c.Item(seq).Output(w)
				if err := c.Commit(seq, []int{w}, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// A sync of a replaced handle must not count against records the
	// compaction already made durable: the unsynced count never dips
	// below zero.
	done := make(chan struct{})
	minUnsynced := make(chan int64)
	go func() {
		low := int64(0)
		for {
			select {
			case <-done:
				minUnsynced <- low
				return
			default:
			}
			low = min(low, c.Stats().Unsynced)
		}
	}()
	wg.Wait()
	close(done)
	if low := <-minUnsynced; low < 0 {
		t.Fatalf("unsynced record count fell to %d", low)
	}
	if st := c.Stats(); st.Snapshots != workers*perWorker || st.Items != workers*perWorker {
		t.Fatalf("stats after the run: %+v", st)
	}
	// Under load every sync may have raced a compaction; one more record
	// appended with no compaction after it must reach the disk through
	// the last handle swapped in.
	if _, err := c.AdmitWait(context.Background(), ds.Scenes[0], "tail"); err != nil {
		t.Fatal(err)
	}
	waitStats(t, c, "sync after the last swap", func(st Stats) bool {
		return st.Syncs > 0 && st.Unsynced == 0
	})
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	before := zoo.Inferences()
	c2 := mustOpen(t, path, Options{})
	defer c2.Close()
	if st := c2.Stats(); st.Committed != workers*perWorker {
		t.Fatalf("reopen recovered %d committed items, want %d", st.Committed, workers*perWorker)
	}
	for w := range want {
		for seq, out := range want[w] {
			if got := c2.Item(seq).Output(w); !reflect.DeepEqual(got, out) {
				t.Fatalf("item %d model %d differs after the reopen", seq, w)
			}
		}
	}
	if ran := zoo.Inferences() - before; ran != 0 {
		t.Fatalf("reopen ran %d inferences; want 0", ran)
	}
}
