package synth

import (
	"fmt"

	"ams/internal/labels"
)

// Dataset is a generated collection of scenes together with its profile.
type Dataset struct {
	Profile Profile
	Scenes  []Scene
}

// NewDataset generates n scenes from the profile, deterministically from
// the seed. Scene IDs are dense indices into Scenes.
func NewDataset(vocab *labels.Vocabulary, profile Profile, n int, seed uint64) *Dataset {
	if n <= 0 {
		panic(fmt.Sprintf("synth: dataset size must be positive, got %d", n))
	}
	g := NewGenerator(vocab, profile, seed)
	d := &Dataset{Profile: profile, Scenes: make([]Scene, n)}
	for i := range d.Scenes {
		s := g.Next()
		s.ID = i
		d.Scenes[i] = s
	}
	return d
}

// Len returns the number of scenes.
func (d *Dataset) Len() int { return len(d.Scenes) }

// TrainFrac is the paper's training fraction: "For each dataset, we split
// it into a training set and a testing set with the ratio of 1:4".
const TrainFrac = 0.2

// Split partitions the dataset into a training prefix-by-stride sample and
// a testing remainder with the requested training fraction (the paper's
// is TrainFrac). Interleaved sampling keeps both splits representative
// without shuffling.
func (d *Dataset) Split(trainFrac float64) (train, test []Scene) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("synth: train fraction must be in (0,1), got %v", trainFrac))
	}
	stride := int(1 / trainFrac)
	if stride < 1 {
		stride = 1
	}
	for i, s := range d.Scenes {
		if i%stride == 0 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	return train, test
}

// Chunked reorders a copy of the dataset into correlated chunks, emulating
// a video-like stream: each chunk of length chunkLen repeats small
// variations of a single base scene (same place/people/dog structure with
// fresh noise seeds). This is the "data partitioned into chunks" case of
// the paper's introduction, where a simple explore–exploit policy excels.
func (d *Dataset) Chunked(vocab *labels.Vocabulary, chunkLen int, seed uint64) *Dataset {
	if chunkLen <= 0 {
		panic("synth: chunk length must be positive")
	}
	g := NewGenerator(vocab, d.Profile, seed)
	out := &Dataset{Profile: d.Profile}
	id := 0
	for len(out.Scenes) < len(d.Scenes) {
		base := g.Next()
		for k := 0; k < chunkLen && len(out.Scenes) < len(d.Scenes); k++ {
			s := cloneScene(base)
			s.ID = id
			s.Seed = base.Seed ^ (uint64(k+1) * 0x9e3779b97f4a7c15)
			id++
			out.Scenes = append(out.Scenes, s)
		}
	}
	return out
}

func cloneScene(s Scene) Scene {
	c := s
	c.Objects = append([]int(nil), s.Objects...)
	c.PoseKP = append([]int(nil), s.PoseKP...)
	c.HandKP = append([]int(nil), s.HandKP...)
	return c
}
