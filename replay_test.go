package ams

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ams/internal/oracle"
	"ams/internal/zoo"
)

// corpusCfg is the fast serving configuration the corpus tests share.
// Corpus is left nil; each test wires its own.
func corpusCfg(workers int) ServeConfig {
	return ServeConfig{
		Workers:     workers,
		Policy:      PolicyAlgorithm1,
		DeadlineSec: 0.4,
		TimeScale:   0.001,
	}
}

// runCorpusStream serves the items through a fresh corpus-wired server
// and returns every result keyed by item ID.
func runCorpusStream(t *testing.T, c *Corpus, cfg ServeConfig, items []Item) map[string]*Result {
	t.Helper()
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
	results := make(map[string]*Result, len(tks))
	for _, tk := range tks {
		res, err := tk.Wait(bg)
		if err != nil {
			t.Fatal(err)
		}
		results[res.ItemID] = res
	}
	return results
}

// sameResult compares the fields a recovered result must reproduce
// bit-identically: the labels (names, confidences, valuable flags), the
// executed models in order, and the schedule time.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Labels, b.Labels) &&
		reflect.DeepEqual(a.ModelsRun, b.ModelsRun) &&
		a.TimeSec == b.TimeSec && a.ItemID == b.ItemID
}

// TestCorpusCrashReplayBitIdentical is the acceptance probe: a journaled
// run, reopened (both intact and truncated at arbitrary byte offsets),
// re-serves every committed item bit-identically without re-running a
// single model — verified by the zoo's inference counter — and re-runs
// only uncommitted items.
func TestCorpusCrashReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.wal")
	c, err := testSys.OpenCorpus(path, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(12, 42)
	original := runCorpusStream(t, c, corpusCfg(2), items)
	if len(original) != 12 {
		t.Fatalf("served %d items, want 12", len(original))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Intact journal: every item was committed, so recovery re-runs
	// nothing — not one inference — and reproduces every result.
	c2, err := testSys.OpenCorpus(path, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := zoo.Inferences()
	rep, err := testSys.ReplayCorpus(bg, testAgent, corpusCfg(2), c2)
	if err != nil {
		t.Fatal(err)
	}
	if ran := zoo.Inferences() - before; ran != 0 {
		t.Fatalf("replay of a fully committed corpus ran %d inferences; want 0", ran)
	}
	if len(rep.Recovered) != 12 || len(rep.Relabeled) != 0 {
		t.Fatalf("recovered %d / relabeled %d, want 12 / 0", len(rep.Recovered), len(rep.Relabeled))
	}
	for _, res := range rep.Recovered {
		want, ok := original[res.ItemID]
		if !ok {
			t.Fatalf("recovered unknown item %q", res.ItemID)
		}
		if !sameResult(res, want) {
			t.Fatalf("recovered %q differs from the pre-crash result:\n got %+v\nwant %+v", res.ItemID, res, want)
		}
		if res.Image != -1 || res.HasRecall {
			t.Fatalf("recovered %q claims a test index or recall: %+v", res.ItemID, res)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill at arbitrary byte offsets: the journal prefix must always
	// reopen, committed items in the prefix recover bit-identically, and
	// the rest relabel.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, frac := range []float64{0.2, 0.5, 0.8, 0.99} {
		cut := 5 + int(frac*float64(len(data)-5))
		p := filepath.Join(dir, fmt.Sprintf("trunc%d.wal", i))
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tc, err := testSys.OpenCorpus(p, CorpusOptions{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		rep, err := testSys.ReplayCorpus(bg, testAgent, corpusCfg(2), tc)
		if err != nil {
			t.Fatalf("cut=%d: replay: %v", cut, err)
		}
		for _, res := range rep.Recovered {
			if want := original[res.ItemID]; want == nil || !sameResult(res, want) {
				t.Fatalf("cut=%d: recovered %q differs from the pre-crash result", cut, res.ItemID)
			}
		}
		if total := len(rep.Recovered) + len(rep.Relabeled); total > 12 {
			t.Fatalf("cut=%d: replay produced %d items from a 12-item run", cut, total)
		}
		for _, res := range rep.Relabeled {
			if res.ItemID == "" {
				t.Fatalf("cut=%d: relabeled result lost its ID", cut)
			}
		}
		if err := tc.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}

// TestCorpusWatermarkUnderOverload is the second acceptance probe: a
// bounded-MaxResident server fed 10x its watermark holds resident items
// at the watermark (admission backpressure + eviction), and an item that
// was committed and evicted remains servable with a bit-identical result.
// The flood arrives through SubmitWait and through a non-blocking Submit
// that retries only on ErrQueueFull: the watermark is queue backpressure
// on the worker that admits the item, never a Submit error.
func TestCorpusWatermarkUnderOverload(t *testing.T) {
	t.Run("SubmitWait", func(t *testing.T) {
		watermarkOverload(t, func(srv *Server, item Item) (*ServeTicket, error) { return srv.SubmitWait(bg, item) })
	})
	t.Run("Submit", func(t *testing.T) {
		watermarkOverload(t, func(srv *Server, item Item) (*ServeTicket, error) {
			for {
				tk, err := srv.Submit(item)
				if err != ErrQueueFull {
					return tk, err
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	})
}

// watermarkOverload runs TestCorpusWatermarkUnderOverload's flood with
// the given submission call.
func watermarkOverload(t *testing.T, submit func(*Server, Item) (*ServeTicket, error)) {
	const maxResident = 4
	path := filepath.Join(t.TempDir(), "corpus.wal")
	c, err := testSys.OpenCorpus(path, CorpusOptions{MaxResident: maxResident})
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpusCfg(2)
	cfg.QueueCap = 2
	cfg.Corpus = c
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(10*maxResident, 7)

	// Sample residency while the overload stream runs.
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	var peakResident int
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if r := c.Stats().Resident; r > peakResident {
				peakResident = r
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// First item first, alone, so it is committed and evicted before the
	// flood — the re-serve probe at the end targets it.
	firstTk, err := srv.SubmitWait(bg, items[0])
	if err != nil {
		t.Fatal(err)
	}
	first, err := firstTk.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	tks := make(chan *ServeTicket, len(items))
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p + 1; i < len(items); i += 4 {
				tk, err := submit(srv, items[i])
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				tks <- tk
			}
		}(p)
	}
	wg.Wait()
	close(tks)
	served := 1
	for tk := range tks {
		if _, err := tk.Wait(bg); err != nil {
			t.Fatal(err)
		}
		served++
	}
	close(stopSampling)
	samplerDone.Wait()
	if served != len(items) {
		t.Fatalf("served %d of %d items", served, len(items))
	}
	if peakResident > maxResident {
		t.Fatalf("resident items peaked at %d, watermark %d", peakResident, maxResident)
	}
	if st := c.Stats(); st.Evicted < int64(len(items)-maxResident) {
		t.Fatalf("only %d evictions across a %d-item overload stream", st.Evicted, len(items))
	}

	// The first item was committed and evicted long ago; re-submitting it
	// re-serves it (deterministic re-execution) bit-identically.
	againTk, err := srv.SubmitWait(bg, items[0])
	if err != nil {
		t.Fatal(err)
	}
	again, err := againTk.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(again, first) {
		t.Fatalf("re-served evicted item differs:\n got %+v\nwant %+v", again, first)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Items != len(items) {
		t.Fatalf("corpus tracks %d items, want %d (re-submission must reuse its slot)", st.Items, len(items))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusEvictionWithLaggingConsumer is the -race satellite: eager
// eviction must never reclaim data a lagging Results consumer still
// needs. Results are captured by value at commit, so every delivered
// result must match an independent recomputation of its models on the
// item's scene, no matter how far behind the consumer runs.
func TestCorpusEvictionWithLaggingConsumer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	c, err := testSys.OpenCorpus(path, CorpusOptions{MaxResident: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpusCfg(2)
	cfg.Corpus = c
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(24, 11)
	scenes := make(map[string]Item, len(items))
	for _, it := range items {
		scenes[it.id] = it
	}

	results := srv.Results()
	consumed := make(chan int)
	go func() {
		n := 0
		for res := range results {
			// Lag far behind the workers, so eviction churns ahead of us.
			time.Sleep(2 * time.Millisecond)
			src, ok := scenes[res.ItemID]
			if !ok {
				t.Errorf("result for unknown item %q", res.ItemID)
				continue
			}
			// Recompute the executed models on a twin of the scene:
			// inference is deterministic, so a result whose memory was
			// reclaimed out from under the stream would differ.
			twin := oracle.NewExternalItem(testSys.Zoo, *src.ext.Scene())
			names := res.ModelsRun
			outs := make([]zoo.Output, len(names))
			for i, name := range names {
				m, ok := testSys.Zoo.ByName(name)
				if !ok {
					t.Errorf("unknown model %q in result", name)
					continue
				}
				outs[i] = twin.Output(m.ID)
			}
			want := testSys.assembleResult(Item{id: res.ItemID, image: -1, valid: true},
				names, outs, res.TimeSec*1000, 0, false)
			if !reflect.DeepEqual(res.Labels, want.Labels) {
				t.Errorf("item %q: delivered labels diverge from recomputation", res.ItemID)
			}
			n++
		}
		consumed <- n
	}()

	for _, it := range items {
		if _, err := srv.SubmitWait(bg, it); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := <-consumed; n != len(items) {
		t.Fatalf("consumer saw %d of %d results", n, len(items))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCompactsAndPreservesRecovery: Server.Checkpoint shrinks
// the journal mid-run — items served twice leave their outputs and
// commits in it twice, and the compacted journal holds each once — and a
// corpus recovered across the compaction still replays every committed
// item without inference, including items evicted before it, whose
// outputs the compaction read back from the journal it replaced.
func TestCheckpointCompactsAndPreservesRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	c, err := testSys.OpenCorpus(path, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpusCfg(2)
	cfg.Corpus = c
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := testSys.GenerateItems(8, 5)
	original := runCorpusStreamVia(t, srv, items)
	for id, res := range runCorpusStreamVia(t, srv, items) {
		if !sameResult(res, original[id]) {
			t.Fatalf("re-served %q differs from its first result", id)
		}
	}
	grown := c.Stats().JournalBytes
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.JournalBytes >= grown || st.Snapshots != 1 {
		t.Fatalf("checkpoint did not compact: %+v (journal was %d bytes)", st, grown)
	}
	admits, outputs, commits := journalRecordCounts(t, path)
	if len(admits) != st.Items || len(commits) != st.Committed || len(outputs) == 0 {
		t.Fatalf("compacted journal: %d items admitted, %d committed; corpus has %+v", len(admits), len(commits), st)
	}
	for what, counts := range map[string]map[[2]uint64]int{"admit": admits, "output": outputs, "commit": commits} {
		for key, n := range counts {
			if n != 1 {
				t.Fatalf("compacted journal holds %d %s records for item %d (model %d)", n, what, key[0], key[1])
			}
		}
	}
	// More traffic after the compaction, then a clean close.
	for id, res := range runCorpusStreamVia(t, srv, testSys.GenerateItems(4, 6)) {
		original[id] = res
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := testSys.OpenCorpus(path, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := zoo.Inferences()
	rep, err := testSys.ReplayCorpus(bg, testAgent, corpusCfg(2), c2)
	if err != nil {
		t.Fatal(err)
	}
	if ran := zoo.Inferences() - before; ran != 0 {
		t.Fatalf("post-snapshot recovery ran %d inferences; want 0", ran)
	}
	if len(rep.Recovered) != len(original) {
		t.Fatalf("recovered %d items, want %d", len(rep.Recovered), len(original))
	}
	for _, res := range rep.Recovered {
		if want := original[res.ItemID]; want == nil || !sameResult(res, want) {
			t.Fatalf("recovered %q differs across the snapshot boundary", res.ItemID)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalRecordCounts walks the frames of a version-2 journal — a 5-byte
// header, then uvarint(len(body)) | body | CRC-32C, each body opening
// with its kind byte (1 admit, 2 output, 3 commit) and the item's uvarint
// sequence, an output's then with its zigzag-varint model — and counts
// the records of each kind per item, or per (item, model) for outputs.
func journalRecordCounts(t *testing.T, path string) (admits, outputs, commits map[[2]uint64]int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 5 || string(data[:4]) != "AMSJ" || data[4] != 2 {
		t.Fatalf("journal header %q is not version 2", data[:min(len(data), 5)])
	}
	admits, outputs, commits = map[[2]uint64]int{}, map[[2]uint64]int{}, map[[2]uint64]int{}
	for off := 5; off < len(data); {
		length, n := binary.Uvarint(data[off:])
		if n <= 0 || off+n+int(length)+4 > len(data) {
			t.Fatalf("journal frame at byte %d is torn", off)
		}
		body := data[off+n : off+n+int(length)]
		seq, k := binary.Uvarint(body[1:])
		switch body[0] {
		case 1:
			admits[[2]uint64{seq}]++
		case 2:
			model, _ := binary.Varint(body[1+k:])
			outputs[[2]uint64{seq, uint64(model)}]++
		case 3:
			commits[[2]uint64{seq}]++
		}
		off += n + int(length) + 4
	}
	return admits, outputs, commits
}

// runCorpusStreamVia submits through an existing server (no close).
func runCorpusStreamVia(t *testing.T, srv *Server, items []Item) map[string]*Result {
	t.Helper()
	var tks []*ServeTicket
	for _, it := range items {
		tk, err := srv.SubmitWait(bg, it)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	out := make(map[string]*Result, len(tks))
	for _, tk := range tks {
		res, err := tk.Wait(bg)
		if err != nil {
			t.Fatal(err)
		}
		out[res.ItemID] = res
	}
	return out
}

// TestCheckpointWithoutCorpus fails loudly instead of silently no-oping.
func TestCheckpointWithoutCorpus(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, corpusCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a corpus succeeded")
	}
}

// TestConcurrentResubmissionsJournalOnce: two submitters each send their
// own copy of one item — same id, same scene — 20 times to a one-shard
// corpus server whose workers resolve them concurrently; the segment
// journals the item once.
func TestConcurrentResubmissionsJournalOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	c, err := testSys.OpenCorpus(path, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpusCfg(2)
	cfg.Corpus = c
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		item := testSys.GenerateItems(1, 31)[0].WithID("same")
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tks []*ServeTicket
			for i := 0; i < 20; i++ {
				tk, err := srv.SubmitWait(bg, item)
				if err != nil {
					t.Error(err)
					return
				}
				tks = append(tks, tk)
			}
			for _, tk := range tks {
				if _, err := tk.Wait(bg); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if admits, _, _ := journalRecordCounts(t, path); len(admits) != 1 || admits[[2]uint64{0}] != 1 {
		t.Fatalf("40 submissions of one item journaled admits %v, want one of item 0", admits)
	}
}

// TestResubmissionAfterRestartAddsNoAdmit: an item committed before a
// restart is found again by its (id, scene) after it: resubmitting a
// fresh copy to a server over the reopened corpus re-serves the same
// result and journals no second admit.
func TestResubmissionAfterRestartAddsNoAdmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	var first *Result
	for round := 0; round < 2; round++ {
		c, err := testSys.OpenCorpus(path, CorpusOptions{})
		if err != nil {
			t.Fatal(err)
		}
		item := testSys.GenerateItems(1, 53)[0].WithID("kept")
		res := runCorpusStream(t, c, corpusCfg(1), []Item{item})["kept"]
		if st := c.Stats(); st.Items != 1 || st.Committed != 1 {
			t.Fatalf("round %d: corpus holds %+v, want one committed item", round, st)
		}
		if round == 0 {
			first = res
		} else if !sameResult(res, first) {
			t.Fatalf("re-served after the restart:\n got %+v\nwant %+v", res, first)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if admits, _, commits := journalRecordCounts(t, path); len(admits) != 1 || admits[[2]uint64{0}] != 1 || commits[[2]uint64{0}] != 2 {
		t.Fatalf("journal holds admits %v and commits %v, want one admit and two commits of item 0", admits, commits)
	}
}

// TestCorpusIdentityIsTheAdmitRecord: a corpus admits an item once per
// (id, scene), every scene field counted. Two specs that differ only in
// their objects get equal scene seeds and are still two items; two
// copies of one spec under one id are one.
func TestCorpusIdentityIsTheAdmitRecord(t *testing.T) {
	compose := func(spec SceneSpec) Item {
		t.Helper()
		item, err := testSys.ComposeItem(spec)
		if err != nil {
			t.Fatal(err)
		}
		return item
	}
	dog := compose(SceneSpec{Objects: []string{"object/dog"}, Seed: 7})
	car := compose(SceneSpec{Objects: []string{"object/car"}, Seed: 7})
	if dog.ext.Scene().Seed != car.ext.Scene().Seed {
		t.Fatal("the two scenes' seeds differ; the check below proves nothing")
	}
	twin := SceneSpec{ID: "twin", Objects: []string{"object/cat"}, Persons: 1, Seed: 9}
	path := filepath.Join(t.TempDir(), "corpus.wal")
	c, err := testSys.OpenCorpus(path, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runCorpusStream(t, c, corpusCfg(1), []Item{dog, car, compose(twin), compose(twin)})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if admits, _, _ := journalRecordCounts(t, path); len(admits) != 3 {
		t.Fatalf("journaled admits %v, want 3: dog, car and one twin", admits)
	}
}

// TestCloseCutsAWatermarkWaitShort: a reopened corpus whose uncommitted
// items fill its watermark, served without ReplayCorpus, evicts nothing,
// so a fresh item's admission waits for good. Close must cut that wait
// short and fail the item with ErrServerClosed.
func TestCloseCutsAWatermarkWaitShort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	opts := CorpusOptions{MaxResident: 2}
	c, err := testSys.OpenCorpus(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range testSys.GenerateItems(2, 61) {
		if _, err := c.segs[0].AdmitWait(bg, *item.ext.Scene(), fmt.Sprint("crashed/", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = testSys.OpenCorpus(path, opts); err != nil {
		t.Fatal(err)
	}
	cfg := corpusCfg(1)
	cfg.Corpus = c
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := srv.SubmitWait(bg, testSys.GenerateItems(1, 67)[0])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
		t.Fatal("the item resolved past a full watermark; the check below proves nothing")
	case <-time.After(20 * time.Millisecond):
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		c.Close() // the wait ends with the corpus, so the test can
		<-closed
		t.Fatal("Close still blocked after 5 s on a watermark no eviction can free")
	}
	if _, err := tk.Wait(bg); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("the cut-short item's Wait = %v, want ErrServerClosed", err)
	}
	if st := srv.Stats(); st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
