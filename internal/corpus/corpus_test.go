package corpus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ams/internal/labels"
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

// TestOpenRejectsBadOptions: an option outside its domain fails the
// open, before the flusher starts — a sync interval that scales to no
// positive Duration would panic its ticker, or never tick.
func TestOpenRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"negative max resident", Options{MaxResident: -1}, "negative option"},
		{"negative snapshot period", Options{SnapshotEvery: -1}, "negative option"},
		{"negative sync count", Options{SyncEveryN: -1}, "negative option"},
		{"negative sync interval", Options{SyncEveryMS: -1}, "negative option"},
		{"sub-nanosecond sync interval", Options{SyncEveryMS: 1e-9}, "sync interval 1e-09 ms"},
		{"infinite sync interval", Options{SyncEveryMS: math.Inf(1)}, "sync interval +Inf ms"},
		{"NaN sync interval", Options{SyncEveryMS: math.NaN()}, "sync interval NaN ms"},
		{"overflowing sync interval", Options{SyncEveryMS: 1e300}, "sync interval 1e+300 ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(z, tempJournal(t), tc.opts)
			if err == nil {
				c.Close()
				t.Fatalf("Open accepted %+v", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open: %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// populate admits n scenes, executes the given models on each, and
// commits the first committed of them; the rest stay in flight, as a
// crash would leave them. It returns the memoized outputs keyed by
// (seq, model) for later bit-identity checks.
func populate(t *testing.T, c *Corpus, n int, models []int, committed int) map[[2]int]zoo.Output {
	t.Helper()
	outs := make(map[[2]int]zoo.Output)
	for i := 0; i < n; i++ {
		seq, err := c.AdmitWait(context.Background(), ds.Scenes[i], "item")
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
	if c2.Stats().Items != 6 {
		t.Fatalf("reopened corpus has %d items, want 6", c2.Stats().Items)
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

// reserve re-serves the first n items: each runs the models again (an
// evicted item recomputes them) and commits again, so the journal holds
// their outputs and commits twice and a compaction has records to drop.
func reserve(t *testing.T, c *Corpus, n int, models []int) {
	t.Helper()
	for seq := 0; seq < n; seq++ {
		c.Begin(seq)
		for _, m := range models {
			c.Item(seq).Output(m)
		}
		if err := c.Commit(seq, models, 100); err != nil {
			t.Fatalf("re-commit %d: %v", seq, err)
		}
	}
}

// assertCompacted checks that the journal at path is a version-2 journal
// holding exactly one admit per item, one output per (item, model) and
// one commit per committed item of c.
func assertCompacted(t *testing.T, c *Corpus, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, good, version, err := readJournal(data, path)
	if err != nil || good != len(data) || version != journalVersion {
		t.Fatalf("compacted journal: version %d, %d of %d bytes sound, err %v", version, good, len(data), err)
	}
	seen := make(map[[3]int]bool)
	kinds := make(map[int]int)
	for _, r := range recs {
		key := [3]int{r.Kind, r.Seq, r.Model}
		if seen[key] {
			t.Fatalf("compacted journal repeats record kind %d of item %d (model %d)", r.Kind, r.Seq, r.Model)
		}
		seen[key] = true
		kinds[r.Kind]++
	}
	if st := c.Stats(); kinds[kindAdmit] != st.Items || kinds[kindCommit] != st.Committed || st.JournalBytes != int64(len(data)) {
		t.Fatalf("compacted journal holds %d admits and %d commits in %d bytes; corpus has %+v",
			kinds[kindAdmit], kinds[kindCommit], len(data), st)
	}
}

func TestJournalTruncationAtArbitraryOffsets(t *testing.T) {
	models := []int{1, 4}
	for _, compacted := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "corpus.wal")
		c := mustOpen(t, path, Options{})
		want := populate(t, c, 5, models, 5)
		if compacted {
			// Re-serve an evicted item so the compaction drops records,
			// then append past the compacted image.
			reserve(t, c, 1, models)
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for i := 5; i < 7; i++ {
				seq, err := c.AdmitWait(context.Background(), ds.Scenes[i], "late")
				if err != nil {
					t.Fatal(err)
				}
				c.Begin(seq)
				for _, m := range models {
					want[[2]int{seq, m}] = c.Item(seq).Output(m)
				}
				if i == 5 {
					if err := c.Commit(seq, models, 100); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Every truncation length from the bare header to the full file
		// must reopen cleanly and recover a bit-identical prefix without
		// inference.
		dir := t.TempDir()
		for cut := headerLen; cut <= len(data); cut++ {
			p := filepath.Join(dir, "trunc.wal")
			if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// One row: a crash mid-compaction left a torn tmp beside the
			// intact journal. Open ignores it; the next compaction
			// overwrites it.
			stale := compacted && cut == len(data)
			if stale {
				if err := os.WriteFile(p+".tmp", data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := zoo.Inferences()
			tc, err := Open(z, p, Options{})
			if err != nil {
				t.Fatalf("compacted=%v cut=%d: open: %v", compacted, cut, err)
			}
			for _, st := range tc.States() {
				if st.Committed {
					for _, m := range st.Executed {
						got := tc.Item(st.Seq).Output(m)
						if !reflect.DeepEqual(got, want[[2]int{st.Seq, m}]) {
							t.Fatalf("compacted=%v cut=%d: item %d model %d differs from pre-crash output", compacted, cut, st.Seq, m)
						}
					}
				}
			}
			if ran := zoo.Inferences() - before; ran != 0 {
				t.Fatalf("compacted=%v cut=%d: recovery ran %d inferences; want 0", compacted, cut, ran)
			}
			// The torn tail was truncated away: appending must work.
			if _, err := tc.AdmitWait(context.Background(), ds.Scenes[9], "post-crash"); err != nil {
				t.Fatalf("compacted=%v cut=%d: admit after recovery: %v", compacted, cut, err)
			}
			if stale {
				if err := tc.Snapshot(); err != nil {
					t.Fatalf("compaction beside a stale tmp: %v", err)
				}
				if _, err := os.Stat(p + ".tmp"); !os.IsNotExist(err) {
					t.Fatalf("stale tmp survives a compaction: %v", err)
				}
			}
			if err := tc.Close(); err != nil {
				t.Fatalf("compacted=%v cut=%d: close: %v", compacted, cut, err)
			}
			os.Remove(p)
		}
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
	seq, err := c.AdmitWait(context.Background(), ds.Scenes[0], "x")
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

// TestCommitNeedsABegin: every Commit ends one Begin. A Commit with no
// schedule in flight errors and touches neither the refcount, the
// journal nor eviction, so later schedules still pair and evict once.
func TestCommitNeedsABegin(t *testing.T) {
	for _, tc := range []struct {
		ops     string // B = Begin, C = Commit
		failing string // per op: x where the Commit must fail
		evicted []bool // per op: evicted after it
	}{
		{"C", "x", []bool{false}},
		{"CBC", "x..", []bool{false, false, true}},
		{"BBCC", "....", []bool{false, false, false, true}},
		{"BCC", "..x", []bool{false, true, true}},
	} {
		c := mustOpen(t, tempJournal(t), Options{})
		seq, err := c.AdmitWait(context.Background(), ds.Scenes[0], "x")
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range tc.ops {
			before := c.Stats()
			if op == 'B' {
				c.Begin(seq)
			} else {
				err := c.Commit(seq, []int{1}, 5)
				if fail := tc.failing[i] == 'x'; fail != (err != nil) {
					t.Fatalf("%s op %d: Commit = %v, want failure %v", tc.ops, i, err, fail)
				}
				if err != nil && c.Stats() != before {
					t.Fatalf("%s op %d: a failed Commit changed the corpus: %+v -> %+v", tc.ops, i, before, c.Stats())
				}
			}
			if got := !c.States()[seq].Resident; got != tc.evicted[i] {
				t.Fatalf("%s op %d: evicted %v, want %v", tc.ops, i, got, tc.evicted[i])
			}
		}
		if st := c.Stats(); st.Evicted > 1 {
			t.Fatalf("%s: evicted %d times, want at most once", tc.ops, st.Evicted)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxResidentWatermarkBackpressure(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{MaxResident: 2})
	defer c.Close()
	s0, err := c.AdmitWait(context.Background(), ds.Scenes[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdmitWait(context.Background(), ds.Scenes[1], "b"); err != nil {
		t.Fatal(err)
	}
	// At the watermark a third admission waits; cancellation unblocks it
	// and leaves the corpus as it was.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.AdmitWait(ctx, ds.Scenes[2], "c"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third admission got %v, want a cancelled wait", err)
	}
	if st := c.Stats(); st.Items != 2 || st.Resident != 2 {
		t.Fatalf("a cancelled admission changed the corpus: %+v", st)
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
}

// TestEvictedHitTakesAWatermarkSlot: admitting a known item finds its
// sequence, and when the item was evicted, making it resident again
// takes a watermark slot like a fresh admission.
func TestEvictedHitTakesAWatermarkSlot(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 1})
	defer c.Close()
	admitRun := func(ctx context.Context, scene int, tag string) (int, error) {
		seq, err := c.AdmitWait(ctx, ds.Scenes[scene], tag)
		if err == nil {
			c.Begin(seq)
			c.Item(seq).Output(0)
			err = c.Commit(seq, []int{0}, 10)
		}
		return seq, err
	}
	if _, err := admitRun(context.Background(), 0, "a"); err != nil {
		t.Fatal(err)
	}
	b, err := c.AdmitWait(context.Background(), ds.Scenes[1], "b") // resident, uncommitted: the slot is taken
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.AdmitWait(ctx, ds.Scenes[0], "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("re-admitting the evicted item past the watermark = %v, want a wait", err)
	}
	c.Begin(b)
	if err := c.Commit(b, nil, 1); err != nil {
		t.Fatal(err)
	}
	if seq, err := admitRun(context.Background(), 0, "a"); err != nil || seq != 0 {
		t.Fatalf("re-admitting the evicted item = %d, %v; want its sequence 0", seq, err)
	}
	if st := c.Stats(); st.Items != 2 || st.Resident != 0 || st.Evicted != 3 {
		t.Fatalf("stats %+v, want 2 items, none resident, 3 evictions", st)
	}
}

func TestSnapshotCompactsAndPreservesEvictedOutputs(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	models := []int{0, 5}
	want := populate(t, c, 4, models, 3) // items 0..2 committed => evicted
	reserve(t, c, 3, models)
	// Item 0 is being re-served once more and has run one model so far:
	// resident again, with its other output only on disk.
	c.Begin(0)
	c.Item(0).Output(models[0])
	grown := c.Stats().JournalBytes
	if err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got := c.Stats(); got.JournalBytes >= grown || got.Snapshots != 1 {
		t.Fatalf("snapshot did not compact the journal: %+v (was %d bytes)", got, grown)
	}
	assertCompacted(t, c, path)
	if _, err := os.Stat(path + ".snap"); !os.IsNotExist(err) {
		t.Fatalf("a compaction wrote a snapshot file: %v", err)
	}
	// A second generation: more activity, snapshot again. The first
	// generation's evicted outputs must survive the rewrite.
	populateFrom := c.Stats().Items
	seq, err := c.AdmitWait(context.Background(), ds.Scenes[populateFrom], "late")
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
	assertCompacted(t, c, path)
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

// TestItemExecutor: a corpus item's own executor — what a server runs a
// corpus-managed item on — reports no ground truth and the scene's seed,
// and Begin/Output/Commit by sequence commits and evicts the item, whose
// re-served output is bit-identical.
func TestItemExecutor(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{})
	defer c.Close()
	seq, err := c.AdmitWait(context.Background(), ds.Scenes[5], "ext")
	if err != nil {
		t.Fatal(err)
	}
	ex := c.Item(seq).Executor()
	if ex.Truth(0) != nil {
		t.Fatal("corpus item reports ground truth")
	}
	if ex.Seed(0) != ds.Scenes[5].Seed {
		t.Fatalf("item identity %#x, want the scene's seed %#x", ex.Seed(0), ds.Scenes[5].Seed)
	}
	c.Begin(seq)
	out := ex.Output(0, 1)
	if err := c.Commit(seq, []int{1}, 5); err != nil {
		t.Fatal(err)
	}
	st := c.States()[seq]
	if !st.Committed || st.Resident {
		t.Fatalf("commit by sequence did not commit+evict: %+v", st)
	}
	if !reflect.DeepEqual(ex.Output(0, 1), out) {
		t.Fatal("re-served output differs")
	}
}

// TestCloseWakesAdmitWait: a watermark-blocked admitter must observe
// Close (with ErrClosed) instead of sleeping forever.
func TestCloseWakesAdmitWait(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 1})
	if _, err := c.AdmitWait(context.Background(), ds.Scenes[0], "a"); err != nil {
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

// TestAdmitWaitEvictionStress hammers the lost-wakeup window: waiters
// must always see concurrent evictions, with no admission stranded.
func TestAdmitWaitEvictionStress(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 2})
	defer c.Close()
	const n = 40
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			seq, err := c.AdmitWait(context.Background(), ds.Scenes[i%len(ds.Scenes)], fmt.Sprint(i))
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
	if st := c.Stats(); st.Items != n {
		t.Fatalf("%d admissions of distinct items made %d entries", n, st.Items)
	}
}

// TestWakeupChannelOnlyForWaiters: AdmitWait makes the watermark's
// wakeup channel only when it has to block, and an eviction closes and
// drops it; an eviction nobody waits on makes none.
func TestWakeupChannelOnlyForWaiters(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{MaxResident: 1})
	defer c.Close()
	space := func() chan struct{} {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.space
	}
	run := func(seq int) {
		c.Begin(seq)
		c.Item(seq).Output(0)
		if err := c.Commit(seq, []int{0}, 10); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.AdmitWait(context.Background(), ds.Scenes[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	run(a)
	if space() != nil {
		t.Fatal("an admission that fit and an eviction with no waiter made a wakeup channel")
	}
	b, err := c.AdmitWait(context.Background(), ds.Scenes[1], "b")
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error)
	go func() {
		_, err := c.AdmitWait(context.Background(), ds.Scenes[2], "c")
		admitted <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for space() == nil {
		if time.Now().After(deadline) {
			t.Fatal("a blocked AdmitWait made no wakeup channel")
		}
		time.Sleep(time.Millisecond)
	}
	run(b)
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}
	if space() != nil {
		t.Fatal("the eviction that woke the waiter left its channel behind")
	}
}
