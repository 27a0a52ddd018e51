package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ams/internal/graph"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSchedules renders, for every policy that reads the labeling
// state's in-flight set, the Algorithm-2 schedule (completion order and
// exact recall) of the first test items: the figures round to two
// decimals and run most policies serially, where nothing is ever in
// flight at an ask, so this is the part of the golden file a wrong
// candidate set cannot slip through.
func goldenSchedules(l *Lab) string {
	st := l.TestStore(DSMSCOCO)
	agent := l.Agent(rl.DuelingDQN, DSMSCOCO)
	g := graph.Build(l.TrainStore(DSMSCOCO))
	rng := tensor.NewRNG(l.seedFor("golden"))
	policies := []struct {
		name string
		p    sim.Policy
	}{
		{"Random", sched.NewRandom(l.Zoo, rng.Split())},
		{"Optimal", sched.NewOptimal(st)},
		{"QGreedy", sched.NewQGreedy(agent, l.Zoo)},
		{"Rule", sched.NewRule(l.Zoo, rng.Split())},
		{"CostQGreedy", sched.NewCostQGreedy(sched.NewSharedCachedPredictor(agent, nil), l.Zoo)},
		{"MemoryPacker", sched.NewMemoryPacker(sched.NewSharedCachedPredictor(agent, nil), l.Zoo)},
		{"RandomPacker", sched.NewRandomPacker(l.Zoo, rng.Split())},
		{"GraphValue", graph.NewValuePolicy(g, l.Zoo)},
		{"GraphDensity", graph.NewDensityPolicy(g, l.Zoo)},
	}
	var b strings.Builder
	b.WriteString("Algorithm-2 schedules (0.8 s, 8 GB), first 8 MSCOCO test items\n")
	for _, np := range policies {
		for i := 0; i < 8 && i < st.NumScenes(); i++ {
			r := sim.RunParallel(st, i, np.p, 800, 8*1024)
			fmt.Fprintf(&b, "%-12s item %d: %v recall %.17g makespan %v peak %v\n",
				np.name, i, r.Executed, r.Recall, r.MakespanMS, r.PeakMemMB)
		}
	}
	b.WriteString("optimal* bounds, first 8 MSCOCO test items\n")
	for i := 0; i < 8 && i < st.NumScenes(); i++ {
		for _, d := range []float64{250, 500, 1000, 2000} {
			fmt.Fprintf(&b, "item %d deadline %vms: %.17g\n", i, d, sched.OptimalStarDeadline(st, i, d))
		}
		for _, mem := range []float64{8 * 1024, 16 * 1024} {
			for _, d := range []float64{400, 800} {
				fmt.Fprintf(&b, "item %d deadline %vms memory %vMB: %.17g\n",
					i, d, mem, sched.OptimalStarMemory(st, i, d, mem))
			}
		}
	}
	for _, cfg := range []sched.ExploreExploitConfig{{ChunkLen: 5, ExploreN: 1}, {ChunkLen: 7, ExploreN: 3}} {
		fmt.Fprintf(&b, "explore-exploit schedules (chunk %d, explore %d), first two chunks of MSCOCO test\n",
			cfg.ChunkLen, cfg.ExploreN)
		rs := sched.RunExploreExploit(st, cfg)
		for i := 0; i < 2*cfg.ChunkLen && i < len(rs); i++ {
			fmt.Fprintf(&b, "item %d: %v time %v recall %.17g\n", i, rs[i].Executed, rs[i].TimeMS, rs[i].Recall)
		}
	}
	return b.String()
}

// TestGoldenFigures pins the text of every deterministic figure the
// scheduling policies feed — Fig. 6 (Rule), Fig. 10 (Cost-Q Greedy,
// Q-Greedy, Random), Fig. 11 (MemoryPacker, RandomPacker), the headline
// and the graph extension — plus raw parallel schedules, the exact
// optimal* bounds and explore–exploit schedules, and Fig. 12, at
// microConfig scale. Table III times the wall clock and stays out.
// Regenerate with `go test ./internal/experiments -run TestGoldenFigures
// -update` only when a figure is meant to move.
func TestGoldenFigures(t *testing.T) {
	l := newMicroLab(t)
	var b strings.Builder
	fig6 := l.Fig6()
	b.WriteString(fig6.FormatCounts() + "\n" + fig6.FormatTimes() + "\n")
	fig10, fig11 := l.Fig10(), l.Fig11()
	for _, r := range fig10 {
		b.WriteString(r.Format() + "\n")
	}
	for _, r := range fig11 {
		b.WriteString(r.Format() + "\n")
	}
	b.WriteString(l.Headline().Format() + "\n")
	b.WriteString(l.ExtGraph().Format() + "\n")
	b.WriteString(goldenSchedules(l))
	fig12 := l.Fig12()
	b.WriteString(fig12.Format())
	// The formatted figures round to two decimals; the recall curves are
	// also pinned exactly.
	b.WriteString("exact recall curves\n")
	for _, r := range fig10 {
		fmt.Fprintf(&b, "Fig. 10 %s: recall %.17g ratio %.17g\n", r.Dataset, r.Recall, r.PerfRatio)
	}
	for _, r := range fig11 {
		fmt.Fprintf(&b, "Fig. 11 %vGB: recall %.17g ratio %.17g\n", r.MemGB, r.Recall, r.PerfRatio)
	}
	fmt.Fprintf(&b, "Fig. 12: recall %.17g\n", fig12.Recall)
	got := b.String()

	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden mismatch: %d lines, want %d", len(gl), len(wl))
	}
}
