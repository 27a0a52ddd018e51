package sched

import (
	"ams/internal/oracle"
	"ams/internal/sim"
)

// ExploreExploitConfig tunes the chunked-stream policy sketched in the
// paper's introduction: for data partitioned into correlated chunks
// (e.g. video segments), explore almost all models at the head of each
// chunk, then exploit the discovered valuable subset for the remainder.
type ExploreExploitConfig struct {
	ChunkLen int // items per correlated chunk
	ExploreN int // items fully explored at the head of each chunk
}

// RunExploreExploit runs the explore–exploit policy over a chunked scene
// stream, returning one result per image. During exploration every model
// runs; the union of models that produced valuable output becomes the
// exploitation subset for the rest of the chunk.
func RunExploreExploit(st *oracle.Store, cfg ExploreExploitConfig) []sim.Result {
	if cfg.ChunkLen <= 0 {
		panic("sched: explore-exploit chunk length must be positive")
	}
	if cfg.ExploreN <= 0 || cfg.ExploreN > cfg.ChunkLen {
		panic("sched: explore count must be in [1, chunk length]")
	}
	results := make([]sim.Result, 0, st.NumScenes())
	var subset []int
	for i := 0; i < st.NumScenes(); i++ {
		pos := i % cfg.ChunkLen
		if pos == 0 {
			subset = nil
		}
		t := oracle.NewTracker(st, i)
		var res sim.Result
		if pos < cfg.ExploreN {
			// Explore: run everything, remember who was valuable.
			valuable := map[int]bool{}
			for _, m := range subset {
				valuable[m] = true
			}
			for m := 0; m < st.NumModels(); m++ {
				t.Execute(m)
				res.Executed = append(res.Executed, m)
				res.TimeMS += st.Zoo.Models[m].TimeMS
				if st.ModelValue(i, m) > 0 {
					valuable[m] = true
				}
			}
			subset = subset[:0]
			for m := 0; m < st.NumModels(); m++ {
				if valuable[m] {
					subset = append(subset, m)
				}
			}
		} else {
			// Exploit the discovered subset.
			for _, m := range subset {
				t.Execute(m)
				res.Executed = append(res.Executed, m)
				res.TimeMS += st.Zoo.Models[m].TimeMS
			}
		}
		res.Recall = t.Recall()
		results = append(results, res)
	}
	return results
}
