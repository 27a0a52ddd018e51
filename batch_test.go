package ams

import (
	"reflect"
	"slices"
	"testing"
)

func TestLabelBatchMatchesSequential(t *testing.T) {
	images := []int{0, 1, 2, 3, 4, 5, 6, 7}
	batch, stats, err := testSys.LabelBatch(bg, testAgent, testItems(images...), Budget{DeadlineSec: 1}, 4)
	if err != nil {
		t.Fatalf("LabelBatch: %v", err)
	}
	if stats.Processed != len(images) {
		t.Fatalf("processed %d", stats.Processed)
	}
	for i, img := range images {
		seq, err := testSys.Label(bg, testAgent, testSys.TestItem(img), Budget{DeadlineSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if got.Image != img {
			t.Fatalf("result %d has image %d", i, got.Image)
		}
		if got.Recall != seq.Recall || got.TimeSec != seq.TimeSec ||
			len(got.ModelsRun) != len(seq.ModelsRun) {
			t.Fatalf("batch result for image %d diverges from sequential: %+v vs %+v",
				img, got, seq)
		}
		for j := range got.ModelsRun {
			if got.ModelsRun[j] != seq.ModelsRun[j] {
				t.Fatalf("image %d schedule diverges at %d", img, j)
			}
		}
	}
}

func TestLabelBatchUnconstrainedAndMemory(t *testing.T) {
	images := []int{0, 1, 2, 3}
	_, stats, err := testSys.LabelBatch(bg, testAgent, testItems(images...), Budget{}, 2)
	if err != nil {
		t.Fatalf("unconstrained batch: %v", err)
	}
	if stats.AvgRecall < 1-1e-9 {
		t.Fatalf("unconstrained batch recall %v", stats.AvgRecall)
	}
	res, _, err := testSys.LabelBatch(bg, testAgent, testItems(images...), Budget{DeadlineSec: 0.8, MemoryGB: 8}, 2)
	if err != nil {
		t.Fatalf("memory batch: %v", err)
	}
	for _, r := range res {
		if r.TimeSec > 0.8+1e-9 {
			t.Fatalf("batch makespan %v over deadline", r.TimeSec)
		}
	}
}

func TestLabelBatchValidation(t *testing.T) {
	if _, _, err := testSys.LabelBatch(bg, nil, testItems(0), Budget{}, 1); err == nil {
		t.Fatal("nil agent accepted")
	}
	if _, _, err := testSys.LabelBatch(bg, testAgent, testItems(-1), Budget{}, 1); err == nil {
		t.Fatal("bad image accepted")
	}
	if _, _, err := testSys.LabelBatch(bg, testAgent, testItems(0), Budget{MemoryGB: 4}, 1); err == nil {
		t.Fatal("memory-without-deadline accepted")
	}
	// A policy is refused for an empty batch as for any other.
	for _, n := range []int{0, 1} {
		if _, _, err := testSys.LabelBatchWith(bg, Policy{}, testAgent, testItems(0)[:n], Budget{}, 1); err == nil {
			t.Fatalf("zero Policy accepted for %d items", n)
		}
		if _, _, err := testSys.LabelBatchWith(bg, PolicyQGreedy, nil, testItems(0)[:n], Budget{}, 1); err == nil {
			t.Fatalf("agent-less qgreedy accepted for %d items", n)
		}
	}
	// Empty batch is fine.
	res, stats, err := testSys.LabelBatch(bg, testAgent, nil, Budget{}, 3)
	if err != nil || len(res) != 0 || stats.Processed != 0 {
		t.Fatalf("empty batch: %v %v %v", res, stats, err)
	}
}

// TestLabelBatchManyWorkers drives the cloning rule hard: far more
// workers than cores over every budget mode. Run under -race it is the
// regression test for sharing a network between workers.
func TestLabelBatchManyWorkers(t *testing.T) {
	images := make([]int, 48)
	for i := range images {
		images[i] = i % testSys.NumTestImages()
	}
	for _, b := range []Budget{
		{DeadlineSec: 0.5},
		{DeadlineSec: 0.5, MemoryGB: 8},
		{},
	} {
		res, stats, err := testSys.LabelBatch(bg, testAgent, testItems(images...), b, 16)
		if err != nil {
			t.Fatalf("budget %+v: %v", b, err)
		}
		if stats.Processed != len(images) {
			t.Fatalf("budget %+v processed %d", b, stats.Processed)
		}
		// Concurrency must not change the per-image answer.
		for i := range images[:4] {
			seq, err := testSys.Label(bg, testAgent, testSys.TestItem(images[i]), b)
			if err != nil {
				t.Fatal(err)
			}
			if res[i].Recall != seq.Recall {
				t.Fatalf("budget %+v image %d recall %v diverges from sequential %v",
					b, images[i], res[i].Recall, seq.Recall)
			}
		}
	}
}

// TestLabelBatchRandomIndependentOfWorkers: the random baseline restarts
// its stream at every item from (seed, the item's scene seed), so a batch
// — test-split and external items mixed — is labeled identically at any
// worker count and in any order, and every item, external ones included
// (slot 0 of a private executor there, a slot after the test split here),
// identically to a lone LabelWith.
func TestLabelBatchRandomIndependentOfWorkers(t *testing.T) {
	items := append(testItems(0, 1, 2, 3, 4, 5, 6, 7, 0, 3), testSys.GenerateItems(4, 77)...)
	pol := PolicyRandom.WithSeed(5)
	for _, b := range []Budget{{DeadlineSec: 0.5}, {DeadlineSec: 0.5, MemoryGB: 8}} {
		want, _, err := testSys.LabelBatchWith(bg, pol, nil, items, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			got, _, err := testSys.LabelBatchWith(bg, pol, nil, items, b, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %+v: %d workers labeled the batch differently from one worker", b, workers)
			}
		}
		if !reflect.DeepEqual(want[0], want[8]) || reflect.DeepEqual(want[0].ModelsRun, want[1].ModelsRun) {
			t.Fatalf("budget %+v: streams are not keyed by item: %v / %v / %v",
				b, want[0].ModelsRun, want[8].ModelsRun, want[1].ModelsRun)
		}
		reversed := slices.Clone(items)
		slices.Reverse(reversed)
		back, _, err := testSys.LabelBatchWith(bg, pol, nil, reversed, b, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items {
			lone, err := testSys.LabelWith(bg, pol, nil, item, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lone, want[i]) || !reflect.DeepEqual(back[len(items)-1-i], want[i]) {
				t.Fatalf("budget %+v item %d (external %v): LabelWith ran %v, the batch %v, the reversed batch %v",
					b, i, item.ext != nil, lone.ModelsRun, want[i].ModelsRun, back[len(items)-1-i].ModelsRun)
			}
		}
	}
}

func TestLabelBatchDefaultWorkers(t *testing.T) {
	images := []int{0, 1, 2}
	res, _, err := testSys.LabelBatch(bg, testAgent, testItems(images...), Budget{DeadlineSec: 0.5}, 0)
	if err != nil || len(res) != 3 {
		t.Fatalf("default workers run failed: %v", err)
	}
}
