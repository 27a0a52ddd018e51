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
