// Command amslabel labels a batch of held-out synthetic images with an
// adaptive-model-scheduling agent under a deadline (and optional memory)
// budget, printing the emitted labels per image.
//
// The scheduling policy defaults to the paper's algorithm for the
// budget shape (Algorithm 1 under a deadline, Algorithm 2 with memory,
// Q-greedy unconstrained) and can be forced with -policy. The policy
// picks the schedule's shape, as in amsserve: only algorithm2 runs an
// item's models in parallel under -memory; every other policy runs one
// model at a time, and -memory only bounds which models fit.
//
// Usage:
//
//	amslabel -dataset MirFlickr25 -n 5 -deadline 0.5
//	amslabel -agent agent.gob -deadline 0.8 -memory 8
//	amslabel -deadline 0.5 -policy random
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"ams"
)

func main() {
	var (
		dataset    = flag.String("dataset", ams.DatasetMirFlickr, "dataset profile")
		images     = flag.Int("images", 500, "images to generate")
		n          = flag.Int("n", 5, "test images to label")
		seed       = flag.Uint64("seed", 1, "determinism seed")
		agentPath  = flag.String("agent", "", "trained agent file (trains a quick agent when empty)")
		deadline   = flag.Float64("deadline", 0.5, "per-image deadline in seconds (0 = none)")
		memory     = flag.Float64("memory", 0, "GPU memory budget in GB (0 = none); bounds which models fit, runs models in parallel only under algorithm2")
		epochs     = flag.Int("epochs", 8, "epochs for the quick agent when -agent is empty")
		policyName = flag.String("policy", "", "scheduling policy (algorithm1, algorithm2, qgreedy, random; only algorithm2 runs in parallel, under -memory); empty = the budget's default")
		external   = flag.Bool("external", false, "label freshly generated external items (no precomputed ground truth) instead of the held-out split")
	)
	flag.Parse()

	sys, err := ams.New(ams.Config{Dataset: *dataset, NumImages: *images, Seed: *seed})
	if err != nil {
		log.Fatalf("amslabel: %v", err)
	}
	var agent *ams.Agent
	if *agentPath != "" {
		agent, err = ams.LoadAgent(*agentPath)
		if err != nil {
			log.Fatalf("amslabel: %v", err)
		}
		fmt.Printf("loaded %s agent trained on %s\n", agent.Algorithm(), agent.TrainedOn())
	} else {
		fmt.Printf("training a quick DuelingDQN agent on %s (%d epochs)...\n", *dataset, *epochs)
		agent, err = sys.TrainAgent(ams.TrainOptions{
			Algorithm: ams.DuelingDQN, Epochs: *epochs, Hidden: []int{96}, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("amslabel: %v", err)
		}
	}

	budget := ams.Budget{DeadlineSec: *deadline, MemoryGB: *memory}
	policy := ams.DefaultPolicy(budget)
	if *policyName != "" {
		policy, err = ams.PolicyByName(*policyName)
		if err != nil {
			log.Fatalf("amslabel: %v", err)
		}
	}
	policy = policy.WithSeed(*seed)
	fmt.Printf("scheduling with policy %s\n", policy.Name())

	// The item source: held-out test images (with ground-truth recall) by
	// default, or externally generated scenes the oracle has never seen.
	var items []ams.Item
	if *external {
		items = sys.GenerateItems(*n, *seed)
		fmt.Printf("labeling %d external items (no precomputed ground truth)\n", len(items))
	} else {
		if *n > sys.NumTestImages() {
			*n = sys.NumTestImages()
		}
		for i := 0; i < *n; i++ {
			items = append(items, sys.TestItem(i))
		}
	}

	ctx := context.Background()
	var recallSum, timeSum float64
	recallN := 0
	for i, item := range items {
		res, err := sys.LabelWith(ctx, policy, agent, item, budget)
		if err != nil {
			log.Fatalf("amslabel: %v", err)
		}
		timeSum += res.TimeSec
		name := fmt.Sprintf("image %d", i)
		if res.ItemID != "" {
			name = res.ItemID
		}
		if res.HasRecall {
			recallSum += res.Recall
			recallN++
			fmt.Printf("\n%s: %d models, %.2fs, recall %.2f\n",
				name, len(res.ModelsRun), res.TimeSec, res.Recall)
		} else {
			fmt.Printf("\n%s: %d models, %.2fs\n", name, len(res.ModelsRun), res.TimeSec)
		}
		for _, l := range res.ValuableLabels() {
			fmt.Printf("  %-32s %.2f  [%s]\n", l.Name, l.Confidence, l.Task)
		}
	}
	fmt.Printf("\n%d items: avg time %.2fs (no-policy would cost %.2fs/image)\n",
		len(items), timeSum/float64(len(items)), sys.NoPolicyTimeSec())
	if recallN > 0 {
		fmt.Printf("avg recall %.3f over the %d ground-truth-backed items\n",
			recallSum/float64(recallN), recallN)
	}
}
