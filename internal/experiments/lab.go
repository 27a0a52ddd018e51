// Package experiments regenerates every table and figure of the paper's
// evaluation (§II and §VI) against the simulated substrate. Each
// experiment is a method on a Lab, which lazily builds and caches the
// datasets, oracle stores, and trained DRL agents that several figures
// share. All results carry a Format method that prints the same rows or
// series the paper plots.
package experiments

import (
	"fmt"
	"hash/fnv"

	"ams/internal/core"
	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// Config scales the experiment suite. Quick keeps a full bench run in
// minutes on a laptop; Full approaches the paper's training regime.
type Config struct {
	Seed        uint64
	DatasetSize int // scenes generated per dataset profile, split synth.TrainFrac for training

	Epochs int   // DRL training epochs
	Hidden []int // Q-network hidden widths

	RecallGrid   []float64 // thresholds for the §VI-B sweeps
	DeadlinesSec []float64 // §VI-F deadline grid (seconds)
	MemDeadlines []float64 // §VI-G deadline grid (seconds)
	MemBudgetsGB []float64 // §VI-G memory grid (GB)
	Thetas       []float64 // §VI-E priority values
}

// Quick returns the fast configuration used by tests and default benches.
func Quick() Config {
	return Config{
		Seed:         1,
		DatasetSize:  500,
		Epochs:       8,
		Hidden:       []int{96},
		RecallGrid:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		DeadlinesSec: []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5},
		MemDeadlines: []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0},
		MemBudgetsGB: []float64{8, 12, 16},
		Thetas:       []float64{1, 2, 5, 10},
	}
}

// Full returns the paper-scale configuration (slow: tens of minutes).
func Full() Config {
	c := Quick()
	c.DatasetSize = 2000
	c.Epochs = 15
	c.Hidden = []int{256}
	return c
}

// Lab owns the cached datasets, ground-truth stores, and trained agents.
// It is not safe for concurrent use.
type Lab struct {
	Cfg   Config
	Vocab *labels.Vocabulary
	Zoo   *zoo.Zoo

	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)

	datasets map[string]*synth.Dataset
	stores   map[string]*oracle.Store
	agents   map[string]*core.Agent
	sweeps   map[string]*SweepResult
}

// NewLab constructs a lab for the configuration.
func NewLab(cfg Config) *Lab {
	v := labels.NewVocabulary()
	return &Lab{
		Cfg:      cfg,
		Vocab:    v,
		Zoo:      zoo.NewZoo(v),
		datasets: make(map[string]*synth.Dataset),
		stores:   make(map[string]*oracle.Store),
		agents:   make(map[string]*core.Agent),
		sweeps:   make(map[string]*SweepResult),
	}
}

func (l *Lab) logf(format string, args ...any) {
	if l.Logf != nil {
		l.Logf(format, args...)
	}
}

// seedFor derives a stable per-purpose seed from the lab seed.
func (l *Lab) seedFor(purpose string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", l.Cfg.Seed, purpose)
	return h.Sum64()
}

// Dataset returns (building on first use) the named dataset.
func (l *Lab) Dataset(name string) *synth.Dataset {
	if d, ok := l.datasets[name]; ok {
		return d
	}
	profile, err := synth.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	l.logf("generating dataset %s (%d scenes)", name, l.Cfg.DatasetSize)
	d := synth.NewDataset(l.Vocab, profile, l.Cfg.DatasetSize, l.seedFor("dataset/"+name))
	l.datasets[name] = d
	return d
}

// store builds or returns the oracle store for one dataset split.
// split is "train", "test" or "all".
func (l *Lab) store(name, split string) *oracle.Store {
	key := name + "/" + split
	if st, ok := l.stores[key]; ok {
		return st
	}
	d := l.Dataset(name)
	var scenes []synth.Scene
	switch split {
	case "all":
		scenes = d.Scenes
	case "train":
		scenes, _ = d.Split(synth.TrainFrac)
	case "test":
		_, scenes = d.Split(synth.TrainFrac)
	default:
		panic(fmt.Sprintf("experiments: unknown split %q", split))
	}
	l.logf("building oracle store %s (%d scenes x %d models)", key, len(scenes), zoo.NumModels)
	st := oracle.Build(l.Zoo, scenes)
	l.stores[key] = st
	return st
}

// TrainStore returns the training-split store of a dataset.
func (l *Lab) TrainStore(name string) *oracle.Store { return l.store(name, "train") }

// TestStore returns the test-split store of a dataset.
func (l *Lab) TestStore(name string) *oracle.Store { return l.store(name, "test") }

// FullStore returns the whole-dataset store.
func (l *Lab) FullStore(name string) *oracle.Store { return l.store(name, "all") }

// Agent returns (training on first use) the agent for an algorithm and
// dataset with uniform priorities.
func (l *Lab) Agent(algo rl.Algorithm, dataset string) *core.Agent {
	return l.AgentTheta(algo, dataset, "", nil)
}

// AgentTheta returns the agent trained with a per-model priority vector.
// thetaKey must uniquely describe theta ("" for uniform priorities).
func (l *Lab) AgentTheta(algo rl.Algorithm, dataset, thetaKey string, theta []float64) *core.Agent {
	key := fmt.Sprintf("%s@%s#%s", algo, dataset, thetaKey)
	if a, ok := l.agents[key]; ok {
		return a
	}
	st := l.TrainStore(dataset)
	l.logf("training %s on %s (%d scenes, %d epochs)%s",
		algo, dataset, st.NumScenes(), l.Cfg.Epochs, thetaSuffix(thetaKey))
	agent := core.Train(st, core.TrainConfig{
		Algo:    algo,
		Epochs:  l.Cfg.Epochs,
		Hidden:  l.Cfg.Hidden,
		Theta:   theta,
		Seed:    l.seedFor("agent/" + key),
		Dataset: dataset,
	})
	l.agents[key] = agent
	return agent
}

func thetaSuffix(k string) string {
	if k == "" {
		return ""
	}
	return " theta=" + k
}

// Canonical dataset names (the synth profile names).
const (
	DSMSCOCO    = "MSCOCO2017"
	DSPlaces    = "Places365"
	DSMirFlickr = "MirFlickr25"
	DSStanford  = "Stanford40"
	DSVOC       = "VOC2012"
)

// SweepDatasets lists the three datasets of the §VI-B sweeps.
func SweepDatasets() []string { return []string{DSMSCOCO, DSMirFlickr, DSPlaces} }
