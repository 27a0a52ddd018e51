package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/synth"
)

// TestTrainPinsSavedAgentBytes: training is deterministic to the bit, for
// every algorithm. The digests are of agents saved when the network still
// trained on output-major weights with a serial Adam step; a change to the
// kernels, the optimizer or the wire format that moves one bit fails here.
func TestTrainPinsSavedAgentBytes(t *testing.T) {
	pins := map[rl.Algorithm]string{
		rl.DQN:        "37c4dfdf30a85a3ec6aef50d448724423cb2d0c393dd592f0c71cb973a5fa4b7",
		rl.DoubleDQN:  "ef02a06e9984b41f9b993ee8d635a52ae3f90a3446570d2f8283f842a65c6141",
		rl.DuelingDQN: "eb77265dc9ccc5ea28b3677eee611025ec0e9f85293e5b287ed70cb21adca1e8",
		rl.DeepSARSA:  "2f16ad0a16d951a5a41fa15cfb64c50ed22ff8981dac443c3bb91a0af4db137e",
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

// BenchmarkTrain times the benchmark set-up's training: a DuelingDQN agent
// with one hidden layer of 256, one epoch over the training split of a
// 400-image MSCOCO system built at seed 1. Its emitted labels reach only
// part of the first layer's rows, which the optimizer step updates.
func BenchmarkTrain(b *testing.B) {
	train, _ := synth.NewDataset(vocab, synth.MSCOCO(), 400, 1^0x5bd1e995).Split(synth.TrainFrac)
	store := oracle.Build(z, train)
	cfg := TrainConfig{Algo: rl.DuelingDQN, Epochs: 1, Hidden: []int{256}, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		Train(store, cfg)
	}
}
