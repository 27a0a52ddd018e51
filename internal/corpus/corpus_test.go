package corpus

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 30, 97)
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "corpus.wal")
}

func mustOpen(t *testing.T, path string, opts Options) *Corpus {
	t.Helper()
	c, err := Open(z, path, opts)
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	return c
}

// populate admits n scenes, executes the given models on each, and
// commits the first committed of them. It returns the memoized outputs
// keyed by (seq, model) for later bit-identity checks.
func populate(t *testing.T, c *Corpus, n int, models []int, committed int) map[[2]int]zoo.Output {
	t.Helper()
	outs := make(map[[2]int]zoo.Output)
	for i := 0; i < n; i++ {
		seq, err := c.TryAdmit(ds.Scenes[i], "item")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		c.Begin(seq)
		for _, m := range models {
			outs[[2]int{seq, m}] = c.Item(seq).Output(m)
		}
		if i < committed {
			if err := c.Commit(seq, models, 100); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		} else {
			c.Abort(seq) // uncommitted: drop the schedule ref without a commit record
		}
	}
	return outs
}

func TestJournalRoundTrip(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	models := []int{0, 3, 7}
	want := populate(t, c, 6, models, 4)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	before := zoo.Inferences()
	c2 := mustOpen(t, path, Options{})
	defer c2.Close()
	if got := zoo.Inferences() - before; got != 0 {
		t.Fatalf("opening a journal ran %d inferences; want 0", got)
	}
	if c2.Len() != 6 {
		t.Fatalf("reopened corpus has %d items, want 6", c2.Len())
	}
	states := c2.States()
	for i, st := range states {
		if wantCommitted := i < 4; st.Committed != wantCommitted {
			t.Fatalf("item %d committed=%v, want %v", i, st.Committed, wantCommitted)
		}
		if st.Committed && !reflect.DeepEqual(st.Executed, models) {
			t.Fatalf("item %d executed %v, want %v", i, st.Executed, models)
		}
		if st.MemoCount != len(models) {
			t.Fatalf("item %d has %d memos, want %d", i, st.MemoCount, len(models))
		}
	}
	// Replayed memos are bit-identical and cost no inference.
	for key, out := range want {
		got := c2.Item(key[0]).Output(key[1])
		if !reflect.DeepEqual(got, out) {
			t.Fatalf("item %d model %d output differs after replay", key[0], key[1])
		}
	}
	if got := zoo.Inferences() - before; got != 0 {
		t.Fatalf("reading replayed memos ran %d inferences; want 0", got)
	}
}

func TestJournalTruncationAtArbitraryOffsets(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	models := []int{1, 4}
	want := populate(t, c, 5, models, 5)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation length from the bare header to the full file must
	// reopen cleanly and recover a bit-identical prefix. Stride keeps the
	// loop fast; the ±1 offsets around record boundaries come for free
	// because the stride is odd.
	dir := t.TempDir()
	for cut := headerLen; cut <= len(data); cut += 137 {
		if cut > len(data) {
			cut = len(data)
		}
		p := filepath.Join(dir, "trunc.wal")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tc, err := Open(z, p, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		for _, st := range tc.States() {
			if st.Committed {
				for _, m := range st.Executed {
					got := tc.Item(st.Seq).Output(m)
					if !reflect.DeepEqual(got, want[[2]int{st.Seq, m}]) {
						t.Fatalf("cut=%d: item %d model %d differs from pre-crash output", cut, st.Seq, m)
					}
				}
			}
		}
		// The torn tail was truncated away: appending must work.
		if _, err := tc.TryAdmit(ds.Scenes[9], "post-crash"); err != nil {
			t.Fatalf("cut=%d: admit after recovery: %v", cut, err)
		}
		if err := tc.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		os.Remove(p)
		os.Remove(p + ".snap")
	}
}

func TestJournalHeaderVersioning(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.wal")
	if err := os.WriteFile(garbage, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(z, garbage, Options{}); err == nil {
		t.Fatal("garbage journal accepted")
	}

	future := filepath.Join(dir, "future.wal")
	if err := os.WriteFile(future, header(journalMagic, journalVersion+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(z, future, Options{}); err == nil {
		t.Fatal("future-version journal accepted")
	} else if want := "newer"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("future-version error %q does not mention %q", err, want)
	}
}

func TestRefcountedEviction(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	defer c.Close()
	seq, err := c.TryAdmit(ds.Scenes[0], "x")
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent schedules hold the item.
	c.Begin(seq)
	c.Begin(seq)
	first := c.Item(seq).Output(2)
	if err := c.Commit(seq, []int{2}, 50); err != nil {
		t.Fatal(err)
	}
	if st := c.States()[seq]; !st.Resident {
		t.Fatal("item evicted while a second schedule still holds it")
	}
	if err := c.Commit(seq, []int{2}, 50); err != nil {
		t.Fatal(err)
	}
	st := c.States()[seq]
	if st.Resident || st.MemoCount != 0 {
		t.Fatalf("committed, unreferenced item not evicted: %+v", st)
	}
	if got := c.Stats(); got.Evicted != 1 || got.Resident != 0 {
		t.Fatalf("stats after eviction: %+v", got)
	}
	// An evicted item stays servable: re-execution is deterministic, so
	// the recomputed output is bit-identical — and residency returns.
	if again := c.Item(seq).Output(2); !reflect.DeepEqual(again, first) {
		t.Fatal("re-served output differs from the evicted one")
	}
	if st := c.States()[seq]; !st.Resident {
		t.Fatal("re-memoized item not accounted resident again")
	}
}

func TestMaxResidentWatermarkBackpressure(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{MaxResident: 2})
	defer c.Close()
	s0, err := c.TryAdmit(ds.Scenes[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TryAdmit(ds.Scenes[1], "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TryAdmit(ds.Scenes[2], "c"); !errors.Is(err, ErrFull) {
		t.Fatalf("third admission got %v, want ErrFull", err)
	}

	// AdmitWait blocks until an eviction frees a slot.
	admitted := make(chan int)
	go func() {
		seq, err := c.AdmitWait(context.Background(), ds.Scenes[2], "c")
		if err != nil {
			t.Errorf("AdmitWait: %v", err)
		}
		admitted <- seq
	}()
	select {
	case seq := <-admitted:
		t.Fatalf("AdmitWait returned %d before any eviction", seq)
	case <-time.After(20 * time.Millisecond):
	}
	c.Begin(s0)
	c.Item(s0).Output(0)
	if err := c.Commit(s0, []int{0}, 10); err != nil {
		t.Fatal(err)
	}
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("AdmitWait still blocked after an eviction freed a slot")
	}

	// Cancellation unblocks a waiter that nothing will ever evict for.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.AdmitWait(ctx, ds.Scenes[3], "d"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled AdmitWait got %v", err)
	}
}

func TestSnapshotCompactsAndPreservesEvictedOutputs(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	models := []int{0, 5}
	want := populate(t, c, 4, models, 3) // items 0..2 committed => evicted
	grown := c.Stats().JournalBytes
	if err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got := c.Stats(); got.JournalBytes >= grown || got.Snapshots != 1 {
		t.Fatalf("snapshot did not compact the journal: %+v (was %d bytes)", got, grown)
	}
	// A second generation: more activity, snapshot again. The first
	// generation's evicted outputs must survive the merge.
	populateFrom := c.Len()
	seq, err := c.TryAdmit(ds.Scenes[populateFrom], "late")
	if err != nil {
		t.Fatal(err)
	}
	c.Begin(seq)
	want[[2]int{seq, 0}] = c.Item(seq).Output(0)
	if err := c.Commit(seq, []int{0}, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	before := zoo.Inferences()
	c2 := mustOpen(t, path, Options{})
	defer c2.Close()
	for _, st := range c2.States() {
		if !st.Committed {
			continue
		}
		for _, m := range st.Executed {
			if got := c2.Item(st.Seq).Output(m); !reflect.DeepEqual(got, want[[2]int{st.Seq, m}]) {
				t.Fatalf("item %d model %d differs after two snapshot generations", st.Seq, m)
			}
		}
	}
	if ran := zoo.Inferences() - before; ran != 0 {
		t.Fatalf("recovery after snapshots ran %d inferences; want 0", ran)
	}
}

func TestSourceIndexing(t *testing.T) {
	// A corpus source over a base store layers corpus items after it.
	base := oracle.Build(z, ds.Scenes[:3])
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	defer c.Close()
	src := c.Source(base)
	if src.NumItems() != base.NumItems() {
		t.Fatalf("empty corpus source has %d items, want %d", src.NumItems(), base.NumItems())
	}
	idx, err := src.TryAdmit(ds.Scenes[5], "ext")
	if err != nil {
		t.Fatal(err)
	}
	if idx != base.NumItems() {
		t.Fatalf("first corpus item at index %d, want %d", idx, base.NumItems())
	}
	if src.Truth(idx) != nil {
		t.Fatal("corpus item reports ground truth")
	}
	if src.Truth(0) == nil {
		t.Fatal("base item lost its ground truth")
	}
	if src.Seed(idx) != ds.Scenes[5].Seed || src.Seed(0) != ds.Scenes[0].Seed {
		t.Fatalf("item identities: corpus item %#x, base item %#x, want the scenes' seeds", src.Seed(idx), src.Seed(0))
	}
	src.BeginItem(idx)
	out := src.Output(idx, 1)
	src.CommitItem(idx, []int{1}, 5)
	st := c.States()[0]
	if !st.Committed || st.Resident {
		t.Fatalf("commit through the source did not commit+evict: %+v", st)
	}
	if !reflect.DeepEqual(src.Output(idx, 1), out) {
		t.Fatal("re-served output differs")
	}
	// Base items are not corpus-managed: their hooks are no-ops.
	src.BeginItem(0)
	src.CommitItem(0, []int{1}, 5)
	src.AbortItem(0)
	if got := c.Stats().Items; got != 1 {
		t.Fatalf("base-item lifecycle leaked into the corpus: %d items", got)
	}
}

// TestCloseWakesAdmitWait: a watermark-blocked admitter must observe
// Close (with ErrClosed) instead of sleeping forever.
func TestCloseWakesAdmitWait(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 1})
	if _, err := c.TryAdmit(ds.Scenes[0], "a"); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error)
	go func() {
		_, err := c.AdmitWait(context.Background(), ds.Scenes[1], "b")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("woken admitter got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AdmitWait still blocked after Close")
	}
}

// TestAbortedAdmissionFreesWatermarkSlot: an admission shed downstream
// (queue full, never begun again) must not strand a resident slot.
func TestAbortedAdmissionFreesWatermarkSlot(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 1})
	defer c.Close()
	seq, err := c.TryAdmit(ds.Scenes[0], "shed")
	if err != nil {
		t.Fatal(err)
	}
	c.Begin(seq)
	c.Abort(seq) // the ErrQueueFull path: begun, never scheduled
	if st := c.Stats(); st.Resident != 0 {
		t.Fatalf("aborted admission still resident: %+v", st)
	}
	// The freed slot admits the next item without any commit happening.
	if _, err := c.TryAdmit(ds.Scenes[1], "next"); err != nil {
		t.Fatalf("watermark slot not reclaimed after abort: %v", err)
	}
	// The aborted entry stays servable: a retry re-serves it and its
	// residency accounting returns through the output hook.
	c.Begin(seq)
	c.Item(seq).Output(0)
	if err := c.Commit(seq, []int{0}, 5); err != nil {
		t.Fatal(err)
	}
	if st := c.States()[seq]; !st.Committed {
		t.Fatal("retried aborted entry did not commit")
	}
}

// TestAdmitWaitEvictionStress hammers the lost-wakeup window: waiters
// must always see concurrent evictions, with no admission stranded.
func TestAdmitWaitEvictionStress(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 2})
	defer c.Close()
	const n = 40
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			seq, err := c.AdmitWait(context.Background(), ds.Scenes[i%len(ds.Scenes)], "s")
			if err == nil {
				c.Begin(seq)
				err = c.Commit(seq, nil, 1) // commit+evict frees the slot
			}
			done <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("admission %d stranded: lost eviction wakeup", i)
		}
	}
}
