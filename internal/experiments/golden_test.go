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
	"ams/internal/rules"
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
	engine := rules.NewEngine(l.Vocab, l.Zoo, rules.TableII())
	engine.EnableSiblingDemotion(0.4)
	rng := tensor.NewRNG(l.seedFor("golden"))
	policies := []struct {
		name string
		p    sim.Policy
	}{
		{"Random", sched.NewRandom(l.Zoo, rng.Split())},
		{"Optimal", sched.NewOptimal(st)},
		{"QGreedy", sched.NewQGreedy(agent, l.Zoo)},
		{"Rule", sched.NewRule(engine, l.Zoo, rng.Split())},
		{"CostQGreedy", sched.NewCostQGreedy(sched.NewCachedPredictor(agent), l.Zoo)},
		{"MemoryPacker", sched.NewMemoryPacker(sched.NewCachedPredictor(agent), l.Zoo)},
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
	return b.String()
}

// TestGoldenFigures pins the text of every deterministic figure the
// scheduling policies feed — Fig. 6 (Rule), Fig. 10 (Cost-Q Greedy,
// Q-Greedy, Random), Fig. 11 (MemoryPacker, RandomPacker), the headline
// and the graph extension — plus raw parallel schedules, at microConfig
// scale. Table III times the wall clock and stays out.
// Regenerate with `go test ./internal/experiments -run TestGoldenFigures
// -update` only when a figure is meant to move.
func TestGoldenFigures(t *testing.T) {
	l := newMicroLab(t)
	var b strings.Builder
	fig6 := l.Fig6()
	b.WriteString(fig6.FormatCounts() + "\n" + fig6.FormatTimes() + "\n")
	for _, r := range l.Fig10() {
		b.WriteString(r.Format() + "\n")
	}
	for _, r := range l.Fig11() {
		b.WriteString(r.Format() + "\n")
	}
	b.WriteString(l.Headline().Format() + "\n")
	b.WriteString(l.ExtGraph().Format() + "\n")
	b.WriteString(goldenSchedules(l))
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
