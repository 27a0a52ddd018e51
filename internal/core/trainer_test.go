package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/zoo"
)

func TestTrainerIncrementalMatchesOneShot(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 40, 101)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DQN)
	cfg.Epochs = 4

	oneShot := Train(store, cfg)

	tr := NewTrainer(store.NumModels(), cfg)
	tr.TrainEpochs(store, 2)
	tr.TrainEpochs(store, 2)
	incremental := tr.Agent()

	state := []int{2, 40, 600}
	a := append([]float64(nil), oneShot.Predict(state)...)
	b := incremental.Predict(state)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("incremental training diverges from one-shot with the same seed")
		}
	}
}

func TestTrainerSnapshotIsIndependent(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 30, 103)
	store := oracle.Build(z, ds.Scenes)
	cfg := tinyTrainConfig(rl.DQN)
	tr := NewTrainer(store.NumModels(), cfg)
	tr.TrainEpochs(store, 1)
	snap := tr.Agent()
	before := append([]float64(nil), snap.Predict([]int{1})...)
	tr.TrainEpochs(store, 2)
	after := snap.Predict([]int{1})
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("snapshot mutated by continued training")
		}
	}
}

func TestTrainerOnlineAdaptation(t *testing.T) {
	// Train on Places, then continue on Stanford40: the adapted agent must
	// beat the unadapted one on Stanford40 content.
	places := oracle.Build(z, synth.NewDataset(vocab, synth.Places365(), 120, 107).Scenes)
	stanford := oracle.Build(z, synth.NewDataset(vocab, synth.Stanford40(), 120, 109).Scenes)
	testSet := oracle.Build(z, synth.NewDataset(vocab, synth.Stanford40(), 120, 111).Scenes)

	cfg := tinyTrainConfig(rl.DuelingDQN)
	cfg.Epochs = 5
	tr := NewTrainer(places.NumModels(), cfg)
	tr.TrainEpochs(places, 5)
	base := tr.Agent()
	tr.TrainEpochs(stanford, 5)
	adapted := tr.Agent()

	evalTime := func(a *Agent) float64 {
		var sum float64
		p := sched.NewQGreedy(a, z)
		for i := 0; i < testSet.NumScenes(); i++ {
			sum += sim.RunToRecall(testSet, i, p, 1.0).TimeMS
		}
		return sum
	}
	if evalTime(adapted) >= evalTime(base)*1.02 {
		t.Fatalf("online adaptation did not help: adapted %v vs base %v",
			evalTime(adapted), evalTime(base))
	}
}

func TestTrainerStoreMismatchPanics(t *testing.T) {
	cfg := tinyTrainConfig(rl.DQN)
	tr := NewTrainer(5, cfg) // wrong model count
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 12, 113)
	store := oracle.Build(z, ds.Scenes)
	defer func() {
		if recover() == nil {
			t.Fatal("model-count mismatch did not panic")
		}
	}()
	tr.TrainEpochs(store, 1)
}

func TestTrainerGlobalStepAdvances(t *testing.T) {
	ds := synth.NewDataset(vocab, synth.MSCOCO(), 15, 119)
	store := oracle.Build(z, ds.Scenes)
	tr := NewTrainer(zoo.NumModels, tinyTrainConfig(rl.DQN))
	if tr.GlobalStep() != 0 {
		t.Fatal("fresh trainer has steps")
	}
	tr.TrainEpochs(store, 1)
	if tr.GlobalStep() < store.NumScenes() {
		t.Fatalf("too few steps: %d", tr.GlobalStep())
	}
}

// TestTrainPinsSavedAgentBytes: training is deterministic to the bit, for
// every algorithm. The digests are of agents saved when the network still
// trained on output-major weights with a serial Adam step; a change to the
// kernels, the optimizer or the wire format that moves one bit fails here.
func TestTrainPinsSavedAgentBytes(t *testing.T) {
	pins := map[rl.Algorithm]string{
		rl.DQN:        "ea1b484b5d82ea5b58a1bc548168df662f2117bd3c46e505e916175d5a35b9e2",
		rl.DoubleDQN:  "f7b744a51e40f523c133518f16f30f5ec6c38167ce784bd825a7cab9dfe9ee9f",
		rl.DuelingDQN: "0dadedbc4346ecd0e47d156cb18b1207aa5b6b7f21c99db2709b50f913ac0212",
		rl.DeepSARSA:  "f98f0e307aae220637955abeef4fcebf5e32da4662c9846f75f899b8968b1145",
	}
	store := oracle.Build(z, synth.NewDataset(vocab, synth.MirFlickr(), 60, 131).Scenes)
	for _, algo := range rl.Algorithms() {
		cfg := tinyTrainConfig(algo)
		cfg.Epochs = 2
		var buf bytes.Buffer
		if err := Train(store, cfg).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != pins[algo] {
			t.Errorf("%v: saved agent has SHA-256 %s, want %s", algo, got, pins[algo])
		}
	}
}
