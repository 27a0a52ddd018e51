package ams

import (
	"context"
	"math"
	"testing"
)

// bg is the no-cancellation context the tests label under.
var bg = context.Background()

// testSystem builds a small shared system; tests run sequentially.
var testSys = mustSystem()

func mustSystem() *System {
	s, err := New(Config{Dataset: DatasetMSCOCO, NumImages: 150, Seed: 3})
	if err != nil {
		panic(err)
	}
	return s
}

// testItems returns testSys.TestItem for each index.
func testItems(images ...int) []Item {
	items := make([]Item, len(images))
	for i, img := range images {
		items[i] = testSys.TestItem(img)
	}
	return items
}

// testAgent trains once and is reused.
var testAgent = mustAgent()

func mustAgent() *Agent {
	a, err := testSys.TrainAgent(TrainOptions{
		Algorithm: DuelingDQN, Epochs: 5, Hidden: []int{32}, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dataset: "nope", NumImages: 100}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := New(Config{NumImages: 5}); err == nil {
		t.Fatal("tiny dataset accepted")
	}
}

func TestDefaults(t *testing.T) {
	s, err := New(Config{NumImages: 50})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.cfg.Dataset != DatasetMSCOCO {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
	if s.NumTrainImages() != 10 || s.NumTestImages() != 40 {
		t.Fatalf("split %d+%d, want the paper's 1:4", s.NumTrainImages(), s.NumTestImages())
	}
}

func TestSystemShape(t *testing.T) {
	if got := len(testSys.ModelNames()); got != 30 {
		t.Fatalf("%d models", got)
	}
	noPol := testSys.NoPolicyTimeSec()
	if noPol < 4.8 || noPol > 5.5 {
		t.Fatalf("no-policy time %v", noPol)
	}
	if len(Datasets()) != 5 {
		t.Fatalf("Datasets() returned %d entries", len(Datasets()))
	}
}

func TestTrainAgentPriorityValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts TrainOptions
	}{
		{"unknown priority model", TrainOptions{Priorities: map[string]float64{"no-such-model": 2}}},
		{"negative priority", TrainOptions{Priorities: map[string]float64{"facedet-mtcnn": -1}}},
		{"NaN priority", TrainOptions{Priorities: map[string]float64{"facedet-mtcnn": math.NaN()}}},
		{"infinite priority", TrainOptions{Priorities: map[string]float64{"facedet-mtcnn": math.Inf(1)}}},
		{"zero hidden width", TrainOptions{Hidden: []int{0}}},
		{"negative epochs", TrainOptions{Epochs: -3}},
		{"unknown algorithm", TrainOptions{Algorithm: Algorithm(99)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			if opts.Epochs == 0 {
				opts.Epochs = 1
			}
			if opts.Hidden == nil {
				opts.Hidden = []int{8}
			}
			if _, err := testSys.TrainAgent(opts); err == nil {
				t.Errorf("TrainAgent accepted %+v", opts)
			}
		})
	}
}

func TestLabelUnconstrained(t *testing.T) {
	res, err := testSys.Label(bg, testAgent, testSys.TestItem(0), Budget{})
	if err != nil {
		t.Fatalf("Label: %v", err)
	}
	if res.Recall < 1-1e-9 {
		t.Fatalf("unconstrained labeling recall %v", res.Recall)
	}
	if len(res.ModelsRun) == 0 || len(res.ModelsRun) > 30 {
		t.Fatalf("models run: %d", len(res.ModelsRun))
	}
	// Valuable labels are a subset with conf >= threshold.
	for _, l := range res.ValuableLabels() {
		if l.Confidence < ValuableThreshold {
			t.Fatalf("valuable label below threshold: %+v", l)
		}
	}
}

func TestLabelDeadline(t *testing.T) {
	res, err := testSys.Label(bg, testAgent, testSys.TestItem(1), Budget{DeadlineSec: 0.5})
	if err != nil {
		t.Fatalf("Label: %v", err)
	}
	if res.TimeSec > 0.5+1e-9 {
		t.Fatalf("deadline violated: %v s", res.TimeSec)
	}
}

func TestLabelMemory(t *testing.T) {
	res, err := testSys.Label(bg, testAgent, testSys.TestItem(2), Budget{DeadlineSec: 0.8, MemoryGB: 8})
	if err != nil {
		t.Fatalf("Label: %v", err)
	}
	if res.TimeSec > 0.8+1e-9 {
		t.Fatalf("makespan exceeds deadline: %v", res.TimeSec)
	}
	// Memory without a deadline is rejected.
	if _, err := testSys.Label(bg, testAgent, testSys.TestItem(2), Budget{MemoryGB: 8}); err == nil {
		t.Fatal("memory budget without deadline accepted")
	}
}

func TestLabelValidation(t *testing.T) {
	if _, err := testSys.Label(bg, nil, testSys.TestItem(0), Budget{}); err == nil {
		t.Fatal("nil agent accepted")
	}
	if _, err := testSys.Label(bg, testAgent, testSys.TestItem(-1), Budget{}); err == nil {
		t.Fatal("negative image accepted")
	}
	if _, err := testSys.Label(bg, testAgent, testSys.TestItem(testSys.NumTestImages()), Budget{}); err == nil {
		t.Fatal("out-of-range image accepted")
	}
	// Zero is the one way to say "no budget": a non-finite one is an
	// error, not silently none.
	for _, b := range []Budget{
		{DeadlineSec: math.NaN()},
		{DeadlineSec: math.Inf(1)},
		{DeadlineSec: 0.3, MemoryGB: math.NaN()},
		{DeadlineSec: 0.3, MemoryGB: math.Inf(1)},
	} {
		if _, err := testSys.Label(bg, testAgent, testSys.TestItem(0), b); err == nil {
			t.Errorf("Label accepted budget %+v", b)
		}
		if _, err := testSys.OptimalStarRecall(0, b); err == nil {
			t.Errorf("OptimalStarRecall accepted budget %+v", b)
		}
	}
}

// FuzzBudget: every labeling surface reads a budget in one domain.
// Label, LabelWith under each registry policy, LabelBatchWith and
// OptimalStarRecall accept or refuse it together, with one error text,
// and none panics. An accepted budget is finite in ms and MB, and every
// float a surface returns is finite.
func FuzzBudget(f *testing.F) {
	for _, b := range []Budget{
		{}, {DeadlineSec: 0.5}, {DeadlineSec: 0.8, MemoryGB: 8}, {MemoryGB: 8}, {DeadlineSec: -1},
		{DeadlineSec: 0.5, MemoryGB: 1e306}, {DeadlineSec: 1e306}, {DeadlineSec: 1e300, MemoryGB: 1e300},
		{DeadlineSec: math.NaN()}, {DeadlineSec: 0.3, MemoryGB: math.Inf(1)},
	} {
		f.Add(b.DeadlineSec, b.MemoryGB)
	}
	items := []Item{testSys.TestItem(0), testSys.TestItem(1)}
	f.Fuzz(func(t *testing.T, deadlineSec, memoryGB float64) {
		b := Budget{DeadlineSec: deadlineSec, MemoryGB: memoryGB}
		var first error
		check := func(surface string, err error, values ...float64) {
			t.Helper()
			if surface == "Label" {
				first = err
			} else if (err == nil) != (first == nil) || err != nil && err.Error() != first.Error() {
				t.Fatalf("%s: %v; Label: %v; want one answer for %+v", surface, err, first, b)
			}
			if err != nil {
				return
			}
			if !finite(b.DeadlineSec*1000) || !finite(b.MemoryGB*1024) {
				t.Fatalf("%s accepted %+v, not finite in ms and MB", surface, b)
			}
			for _, v := range values {
				if !finite(v) {
					t.Fatalf("%s returned %v under %+v", surface, v, b)
				}
			}
		}
		resultValues := func(res ...*Result) []float64 {
			var vs []float64
			for _, r := range res {
				if r == nil { // refused
					continue
				}
				vs = append(vs, r.TimeSec, r.Recall)
				for _, l := range r.Labels {
					vs = append(vs, l.Confidence)
				}
			}
			return vs
		}
		res, err := testSys.Label(bg, testAgent, items[0], b)
		check("Label", err, resultValues(res)...)
		for _, p := range builtinPolicies {
			res, err := testSys.LabelWith(bg, p, testAgent, items[0], b)
			check("LabelWith "+p.Name(), err, resultValues(res)...)
		}
		batch, st, err := testSys.LabelBatchWith(bg, DefaultPolicy(b), testAgent, items, b, 2)
		check("LabelBatchWith", err, append(resultValues(batch...), st.AvgRecall, st.AvgTimeSec)...)
		r, err := testSys.OptimalStarRecall(0, b)
		check("OptimalStarRecall", err, r)
	})
}

func TestAgentBeatsRandomBaseline(t *testing.T) {
	var agentSum, randSum float64
	n := testSys.NumTestImages()
	for i := 0; i < n; i++ {
		a, err := testSys.Label(bg, testAgent, testSys.TestItem(i), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := testSys.LabelRandom(bg, testSys.TestItem(i), Budget{}, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		agentSum += a.TimeSec
		randSum += r.TimeSec
	}
	if agentSum >= randSum {
		t.Fatalf("agent time %v not below random %v", agentSum, randSum)
	}
}

func TestOptimalStarRecall(t *testing.T) {
	r, err := testSys.OptimalStarRecall(0, Budget{DeadlineSec: 1})
	if err != nil || r <= 0 || r > 1 {
		t.Fatalf("optimal* = %v, %v", r, err)
	}
	full, err := testSys.OptimalStarRecall(0, Budget{})
	if err != nil || full != 1 {
		t.Fatalf("unconstrained optimal* = %v, %v", full, err)
	}
	mem, err := testSys.OptimalStarRecall(0, Budget{DeadlineSec: 1, MemoryGB: 8})
	if err != nil || mem <= 0 || mem > 1 {
		t.Fatalf("memory optimal* = %v, %v", mem, err)
	}
	if _, err := testSys.OptimalStarRecall(0, Budget{MemoryGB: 8}); err == nil {
		t.Fatal("memory without deadline accepted")
	}
}

func TestAgentSaveLoad(t *testing.T) {
	path := t.TempDir() + "/agent.gob"
	if err := testAgent.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadAgent(path)
	if err != nil {
		t.Fatalf("LoadAgent: %v", err)
	}
	if loaded.Algorithm() != DuelingDQN || loaded.TrainedOn() != DatasetMSCOCO {
		t.Fatalf("metadata wrong: %v %v", loaded.Algorithm(), loaded.TrainedOn())
	}
	state := []int{1, 2, 3}
	a := testAgent.PredictValues(state)
	b := loaded.PredictValues(state)
	if len(a) != 30 || len(b) != 30 {
		t.Fatalf("PredictValues lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded agent predicts differently")
		}
	}
}

func TestChunkedStream(t *testing.T) {
	res, err := testSys.LabelChunkedStream(100, 10, 1)
	if err != nil {
		t.Fatalf("LabelChunkedStream: %v", err)
	}
	if res.Images != 100 {
		t.Fatalf("images %d", res.Images)
	}
	if res.TimeSavedFrac <= 0.3 {
		t.Fatalf("explore-exploit saved only %v", res.TimeSavedFrac)
	}
	if res.AvgRecall < 0.85 {
		t.Fatalf("stream recall %v too low", res.AvgRecall)
	}
	// Validation.
	if _, err := testSys.LabelChunkedStream(5, 10, 1); err == nil {
		t.Fatal("bad stream sizes accepted")
	}
	if _, err := testSys.LabelChunkedStream(100, 10, 11); err == nil {
		t.Fatal("bad exploreN accepted")
	}
}

func TestPriorityTrainingPullsModelForward(t *testing.T) {
	prio, err := testSys.TrainAgent(TrainOptions{
		Algorithm: DuelingDQN, Epochs: 5, Hidden: []int{32}, Seed: 11,
		Priorities: map[string]float64{"facedet-mtcnn": 10},
	})
	if err != nil {
		t.Fatalf("TrainAgent: %v", err)
	}
	// Average scheduling position of the prioritized model must come
	// forward relative to the uniform-priority agent.
	pos := func(a *Agent) float64 {
		var sum float64
		n := testSys.NumTestImages()
		for i := 0; i < n; i++ {
			res, err := testSys.Label(bg, a, testSys.TestItem(i), Budget{})
			if err != nil {
				t.Fatal(err)
			}
			p := len(res.ModelsRun) + 1
			for j, name := range res.ModelsRun {
				if name == "facedet-mtcnn" {
					p = j + 1
					break
				}
			}
			sum += float64(p)
		}
		return sum / float64(n)
	}
	if pp, up := pos(prio), pos(testAgent); pp >= up {
		t.Fatalf("priority agent position %v not earlier than uniform %v", pp, up)
	}
}
