package corpus

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
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
