package experiments

import (
	"fmt"
	"strings"
	"time"

	"ams/internal/labels"
	"ams/internal/metrics"
	"ams/internal/rl"
	"ams/internal/rules"
	"ams/internal/tensor"
)

// TableI renders the task/model/label inventory (paper Table I).
func (l *Lab) TableI() string {
	var rows [][]string
	totalLabels := 0
	for _, t := range labels.Tasks() {
		n := t.LabelCount()
		totalLabels += n
		models := l.Zoo.ModelsForTask(t)
		names := make([]string, len(models))
		for i, m := range models {
			names[i] = m.Name
		}
		rows = append(rows, []string{
			t.String(), fmt.Sprintf("%d", n), strings.Join(names, ", "),
		})
	}
	rows = append(rows, []string{"10 Tasks",
		fmt.Sprintf("%d Labels", totalLabels),
		fmt.Sprintf("%d Models", len(l.Zoo.Models))})
	return "Table I — summary of 10 visual analysis tasks\n" +
		metrics.Table([]string{"task", "label#", "deployed models"}, rows)
}

// TableII renders the handcrafted rules (paper Table II).
func (l *Lab) TableII() string {
	var rows [][]string
	for _, r := range rules.TableII() {
		factor := "2x"
		if r.Factor < 1 {
			factor = "0.5x"
		}
		rows = append(rows, []string{r.From.String(), r.Name, factor})
	}
	return "Table II — ten handcrafted model execution rules\n" +
		metrics.Table([]string{"current model task", "rule", "factor"}, rows)
}

// TableIIIResult reports the scheduling overhead measurements.
type TableIIIResult struct {
	SelectionMS                    float64 // time per DRL value prediction (one selection)
	AgentMemoryMB                  float64 // agent parameter footprint
	ModelTimeMinMS, ModelTimeMaxMS float64
	ModelMemMinMB, ModelMemMaxMB   float64
}

// TableIII measures the overhead added by the framework (paper Table III):
// the wall-clock cost of one agent selection and the agent's memory
// footprint, against the simulated models' cost ranges.
func (l *Lab) TableIII() TableIIIResult {
	agent := l.Agent(rl.DuelingDQN, DSMSCOCO)
	rng := tensor.NewRNG(l.seedFor("table3"))
	// Random plausible labeling states: a handful of active labels.
	states := make([][]int, 256)
	for i := range states {
		n := 1 + rng.Intn(40)
		seen := map[int]bool{}
		for len(seen) < n {
			seen[rng.Intn(agent.Net.In())] = true
		}
		s := make([]int, 0, n)
		for id := range seen {
			s = append(s, id)
		}
		states[i] = sortedInts(s)
	}
	const iters = 2000
	agent.Predict(states[0]) // the first prediction freezes the network; serving pays that once
	start := time.Now()
	for i := 0; i < iters; i++ {
		agent.Predict(states[i%len(states)])
	}
	elapsed := time.Since(start)

	res := TableIIIResult{
		SelectionMS:   float64(elapsed.Microseconds()) / 1000 / iters,
		AgentMemoryMB: float64(agent.Net.NumParams()) * 8 / 1e6,
	}
	res.ModelTimeMinMS, res.ModelTimeMaxMS = 1e18, 0
	res.ModelMemMinMB, res.ModelMemMaxMB = 1e18, 0
	for _, m := range l.Zoo.Models {
		res.ModelTimeMinMS = min(res.ModelTimeMinMS, m.TimeMS)
		res.ModelTimeMaxMS = max(res.ModelTimeMaxMS, m.TimeMS)
		res.ModelMemMinMB = min(res.ModelMemMinMB, m.MemMB)
		res.ModelMemMaxMB = max(res.ModelMemMaxMB, m.MemMB)
	}
	return res
}

// Format renders Table III.
func (r TableIIIResult) Format() string {
	return "Table III — computing cost of DRL agent vs deployed models\n" +
		metrics.Table(
			[]string{"", "DRL agent", "deep learning model"},
			[][]string{
				{"time", fmt.Sprintf("%.3f ms/selection", r.SelectionMS),
					fmt.Sprintf("%.0f-%.0f ms", r.ModelTimeMinMS, r.ModelTimeMaxMS)},
				{"memory", fmt.Sprintf("%.1f MB (CPU)", r.AgentMemoryMB),
					fmt.Sprintf("%.0f-%.0f MB (GPU)", r.ModelMemMinMB, r.ModelMemMaxMB)},
			})
}

func sortedInts(xs []int) []int {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
	return xs
}
