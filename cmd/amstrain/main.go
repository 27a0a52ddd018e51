// Command amstrain trains an adaptive-model-scheduling DRL agent on one
// of the built-in synthetic datasets and writes it to disk.
//
// Usage:
//
//	amstrain -dataset MSCOCO2017 -algo DuelingDQN -images 1000 -epochs 10 -out agent.gob
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ams"
	"ams/internal/rl"
)

func main() {
	var (
		dataset = flag.String("dataset", ams.DatasetMSCOCO, "dataset profile ("+strings.Join(ams.Datasets(), ", ")+")")
		algo    = flag.String("algo", "DuelingDQN", "training algorithm (DQN, DoubleDQN, DuelingDQN, DeepSARSA)")
		images  = flag.Int("images", 1000, "images to generate")
		epochs  = flag.Int("epochs", 10, "training epochs")
		hidden  = flag.Int("hidden", 256, "Q-network hidden width")
		seed    = flag.Uint64("seed", 1, "determinism seed")
		out     = flag.String("out", "agent.gob", "output agent file")
		prio    = flag.String("priority", "", "optional model:theta priority, e.g. facedet-mtcnn:10")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	algorithm, err := rl.ParseAlgorithm(*algo)
	if err != nil {
		log.Fatalf("amstrain: %v", err)
	}
	sys, err := ams.New(ams.Config{Dataset: *dataset, NumImages: *images, Seed: *seed})
	if err != nil {
		log.Fatalf("amstrain: %v", err)
	}
	opts := ams.TrainOptions{
		Algorithm: algorithm,
		Epochs:    *epochs,
		Hidden:    []int{*hidden},
		Seed:      *seed,
	}
	if !*quiet {
		fmt.Printf("training %s on %s: %d train images, %d epochs\n",
			algorithm, *dataset, sys.NumTrainImages(), *epochs)
		opts.Progress = func(epoch int, loss, reward float64) {
			fmt.Printf("  epoch %2d  loss=%.4f  mean-reward=%.3f\n", epoch, loss, reward)
		}
	}
	if *prio != "" {
		name, thetaStr, ok := strings.Cut(*prio, ":")
		if !ok {
			log.Fatalf("amstrain: bad -priority %q (want model:theta)", *prio)
		}
		theta, err := strconv.ParseFloat(thetaStr, 64)
		if err != nil {
			log.Fatalf("amstrain: bad -priority theta %q: %v", thetaStr, err)
		}
		opts.Priorities = map[string]float64{name: theta}
	}
	agent, err := sys.TrainAgent(opts)
	if err != nil {
		log.Fatalf("amstrain: %v", err)
	}
	if err := agent.Save(*out); err != nil {
		log.Fatalf("amstrain: %v", err)
	}
	if !*quiet {
		fi, _ := os.Stat(*out)
		fmt.Printf("saved %s (%d bytes)\n", *out, fi.Size())
	}
}
