package sched

import (
	"math"

	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// ExploreExploitConfig tunes the chunked-stream policy sketched in the
// paper's introduction: for data partitioned into correlated chunks
// (e.g. video segments), explore almost all models at the head of each
// chunk, then exploit the discovered valuable subset for the remainder.
type ExploreExploitConfig struct {
	ChunkLen int // items per correlated chunk
	ExploreN int // items fully explored at the head of each chunk
}

// RunExploreExploit runs the explore–exploit policy serially over a
// chunked scene stream, returning one result per image. During
// exploration every model runs; the union of models that produced
// valuable output becomes the exploitation subset for the rest of the
// chunk.
func RunExploreExploit(st *oracle.Store, cfg ExploreExploitConfig) []sim.Result {
	if cfg.ChunkLen <= 0 {
		panic("sched: explore-exploit chunk length must be positive")
	}
	if cfg.ExploreN <= 0 || cfg.ExploreN > cfg.ChunkLen {
		panic("sched: explore count must be in [1, chunk length]")
	}
	p := &exploreExploit{st: st, cfg: cfg, valuable: make([]bool, st.NumModels())}
	results := make([]sim.Result, st.NumScenes())
	for i := range results {
		results[i] = sim.RunDeadline(st, i, p, math.Inf(1))
	}
	return results
}

// exploreExploit is the explore–exploit policy. Scenes must arrive in
// stream order: a chunk's valuable set accumulates over its explored
// items and is cleared at the next chunk's head.
type exploreExploit struct {
	st       *oracle.Store
	cfg      ExploreExploitConfig
	scene    int
	explore  bool
	valuable []bool // models valuable on an explored item of this chunk
}

func (p *exploreExploit) Name() string { return "Explore-Exploit" }

func (p *exploreExploit) Reset(scene int) {
	pos := scene % p.cfg.ChunkLen
	if pos == 0 {
		clear(p.valuable)
	}
	p.scene, p.explore = scene, pos < p.cfg.ExploreN
}

// Next runs every model, in index order, while exploring, and only the
// chunk's valuable ones while exploiting.
func (p *exploreExploit) Next(t *oracle.Tracker, _ sim.Constraints) int {
	for m := range t.Candidates() {
		if p.explore || p.valuable[m] {
			return m
		}
	}
	return -1
}

func (p *exploreExploit) Observe(m int, _ zoo.Output) {
	if p.explore && p.st.ModelValue(p.scene, m) > 0 {
		p.valuable[m] = true
	}
}
