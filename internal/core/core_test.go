package core

import (
	"bytes"
	"math"
	"testing"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
)

// tinyTrainConfig keeps unit-test training fast.
func tinyTrainConfig(algo rl.Algorithm) TrainConfig {
	return TrainConfig{
		Algo:            algo,
		Epochs:          4,
		Hidden:          []int{32},
		LearningRate:    0.002,
		BatchSize:       16,
		ReplayCapacity:  4000,
		TargetSyncEvery: 100,
		TrainEvery:      2,
		Epsilon:         rl.EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 1500},
		Seed:            7,
		Dataset:         "unit",
	}
}

func TestRewardFunction(t *testing.T) {
	if r := RewardWith(RewardLog, 1, 0, 0); r != -1 {
		t.Fatalf("empty output reward %v, want -1", r)
	}
	r := RewardWith(RewardLog, 1, 2, 1.4)
	want := math.Log(1.4 + 1)
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("reward %v, want %v", r, want)
	}
	// Theta scales inside the log: higher priority, higher reward.
	if RewardWith(RewardLog, 5, 2, 1.4) <= RewardWith(RewardLog, 1, 2, 1.4) {
		t.Fatal("higher theta did not increase reward")
	}
	// Logarithm compresses: 10x value is far less than 10x reward.
	if RewardWith(RewardLog, 1, 20, 14) > 10*RewardWith(RewardLog, 1, 1, 0.7) {
		t.Fatal("logarithmic smoothing failed to compress large outputs")
	}
	// Low-confidence-only fresh output still earns a small positive
	// reward, not the punishment.
	if r := RewardWith(RewardLog, 1, 1, 0.1); r <= 0 || r >= 0.2 {
		t.Fatalf("low-value fresh reward %v out of expected band", r)
	}
}

func TestFreshValueUsesProfits(t *testing.T) {
	faceKP := vocab.TaskLabels(labels.FaceLandmark)[0]
	place := vocab.TaskLabels(labels.PlaceClassification)[0]
	fv := FreshValue(vocab, []zoo.LabelConf{{ID: faceKP, Conf: 0.9}, {ID: place, Conf: 0.9}})
	// Keypoints carry a fractional profit; places carry 1.0.
	want := 0.05*0.9 + 1.0*0.9
	if math.Abs(fv-want) > 1e-12 {
		t.Fatalf("FreshValue = %v, want %v", fv, want)
	}
}

func TestTrainProducesUsefulAgent(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 150, 61)
	train, test := ds.Split(0.3)
	trainStore := oracle.Build(z, train)
	testStore := oracle.Build(z, test)

	cfg := tinyTrainConfig(rl.DuelingDQN)
	cfg.Epochs = 6
	agent := Train(trainStore, cfg)

	if agent.NumModels != zoo.NumModels || agent.Algo != rl.DuelingDQN {
		t.Fatalf("agent metadata wrong: %+v", agent)
	}
	if agent.Net.Out() != zoo.NumModels+1 {
		t.Fatalf("agent network has %d outputs", agent.Net.Out())
	}

	// The Q-greedy policy with the trained agent must beat random on the
	// held-out scenes (average executed models to reach full recall).
	rng := tensor.NewRNG(3)
	var agentN, randN int
	for i := 0; i < testStore.NumScenes(); i++ {
		agentN += len(sim.RunToRecall(testStore, i,
			sched.NewQGreedy(agent, z), 1.0).Executed)
		randN += len(sim.RunToRecall(testStore, i,
			sched.NewRandom(z, rng), 1.0).Executed)
	}
	if agentN >= randN {
		t.Fatalf("trained agent (%d executions) not better than random (%d)", agentN, randN)
	}
}

func TestTrainAllAlgorithmsRun(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MirFlickr(), 40, 67)
	store := oracle.Build(z, ds.Scenes)
	for _, algo := range rl.Algorithms() {
		cfg := tinyTrainConfig(algo)
		cfg.Epochs = 1
		agent := Train(store, cfg)
		if agent.Algo != algo {
			t.Fatalf("agent records algo %v, want %v", agent.Algo, algo)
		}
		q := agent.Predict(nil)
		if len(q) != zoo.NumModels+1 {
			t.Fatalf("%v predict returned %d values", algo, len(q))
		}
		for _, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v produced non-finite Q values", algo)
			}
		}
	}
}

func TestTrainProgressCallback(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.VOC2012(), 20, 71)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DQN)
	cfg.Epochs = 3
	var epochs []int
	cfg.Progress = func(epoch int, loss, reward float64) {
		epochs = append(epochs, epoch)
		if math.IsNaN(loss) || math.IsNaN(reward) {
			t.Fatalf("non-finite progress at epoch %d", epoch)
		}
	}
	Train(store, cfg)
	if len(epochs) != 3 || epochs[0] != 0 || epochs[2] != 2 {
		t.Fatalf("progress callback epochs %v", epochs)
	}
}

func TestTrainThetaValidation(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.VOC2012(), 10, 73)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DQN)
	cfg.Theta = []float64{1, 2} // wrong length
	defer func() {
		if recover() == nil {
			t.Fatal("bad Theta did not panic")
		}
	}()
	Train(store, cfg)
}

func TestAgentSaveLoadRoundTrip(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 15, 79)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DoubleDQN)
	cfg.Epochs = 1
	agent := Train(store, cfg)

	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadAgent(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Algo != rl.DoubleDQN || loaded.NumModels != zoo.NumModels ||
		loaded.Dataset != "unit" {
		t.Fatalf("loaded metadata wrong: %+v", loaded)
	}
	state := []int{3, 50, 200}
	qa := append([]float64(nil), agent.Predict(state)...)
	qb := loaded.Predict(state)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("loaded agent predicts differently at %d", i)
		}
	}
}

func TestLoadAgentRejectsGarbage(t *testing.T) {
	if _, err := LoadAgent(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("LoadAgent accepted garbage")
	}
}

func TestAgentFileRoundTrip(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 10, 83)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DQN)
	cfg.Epochs = 1
	agent := Train(store, cfg)
	path := t.TempDir() + "/agent.gob"
	if err := agent.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadAgentFile(path)
	if err != nil {
		t.Fatalf("LoadAgentFile: %v", err)
	}
	if loaded.Algo != rl.DQN {
		t.Fatalf("wrong algo after file round trip")
	}
}

func TestEndIndexAndDeterminism(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 20, 89)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DQN)
	cfg.Epochs = 2
	a := Train(store, cfg)
	b := Train(store, cfg)
	if a.NumModels != zoo.NumModels {
		t.Fatalf("END action index = %d", a.NumModels)
	}
	// Same seed, same data: identical agents.
	state := []int{1, 2, 3}
	qa := append([]float64(nil), a.Predict(state)...)
	qb := b.Predict(state)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("training is not deterministic for a fixed seed")
		}
	}
}

// A keyed-literal agent predicts with no constructor call, forks share its
// frozen view while owning their scratch, and every one of them returns
// the training network's Q-values bit for bit.
func TestAgentForksShareOneFrozenView(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 10, 97)
	cfg := tinyTrainConfig(rl.DuelingDQN)
	cfg.Epochs = 1
	trained := Train(oracle.Build(z, ds.Scenes), cfg)
	agent := &Agent{Net: trained.Net.Clone(), NumModels: trained.NumModels, Algo: trained.Algo, Dataset: trained.Dataset}
	fork := agent.Fork()
	if fork.view() != agent.view() {
		t.Fatal("a fork froze its own copy of the network")
	}
	a, b := []int{3, 50, 200}, []int{7}
	qa := agent.Predict(a)
	qb := fork.Predict(b) // must not disturb qa: the scratches are separate
	for _, c := range []struct {
		state []int
		got   []float64
	}{{a, qa}, {b, qb}} {
		want := trained.Net.Forward(c.state)
		for i := range want {
			if math.Float64bits(c.got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("state %v, action %d: predicted %v, Net.Forward %v", c.state, i, c.got[i], want[i])
			}
		}
	}
}

func TestLoadAgentRejectsNonFiniteWeights(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 10, 101)
	cfg := tinyTrainConfig(rl.DQN)
	cfg.Epochs = 1
	agent := Train(oracle.Build(z, ds.Scenes), cfg)
	agent.Net.Params()[0].Val[5] = math.Inf(1)
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAgent(&buf); err == nil {
		t.Fatal("LoadAgent accepted a network with an infinite weight")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict on a network with an infinite weight did not panic")
		}
	}()
	agent.Predict([]int{1})
}
