package zoo_test

import (
	"reflect"
	"sort"
	"testing"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// supportingModelsMap is the map-weighted ranking SupportingModels
// replaced, kept as the reference the dense version must reproduce.
func supportingModelsMap(z *zoo.Zoo, weights map[int]float64, k int) []int {
	if len(weights) == 0 || k <= 0 {
		return nil
	}
	type scored struct {
		id    int
		score float64
	}
	var ss []scored
	for _, m := range z.Models {
		score := 0.0
		for _, l := range m.Supported {
			score += weights[l]
		}
		if score > 0 {
			ss = append(ss, scored{m.ID, score})
		}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].id < ss[j].id
	})
	if len(ss) > k {
		ss = ss[:k]
	}
	ids := make([]int, len(ss))
	for i, s := range ss {
		ids[i] = s.id
	}
	return ids
}

// sceneWeights counts a scene's declared labels, the weights of an
// external item's affinity hint.
func sceneWeights(s *synth.Scene) map[int]float64 {
	w := make(map[int]float64)
	for _, l := range []int{s.Place, s.Emotion, s.Gender, s.Action, s.Dog} {
		if l >= 0 {
			w[l]++
		}
	}
	for _, ls := range [][]int{s.Objects, s.PoseKP, s.HandKP} {
		for _, l := range ls {
			w[l]++
		}
	}
	return w
}

// TestSupportingModelsMatchesTheMapRanking: over 3 000 generated scenes'
// content weights and every item of a test split's ground-truth values,
// the dense ranking equals the map-weighted top four, and costs at most
// its result's allocation.
func TestSupportingModelsMatchesTheMapRanking(t *testing.T) {
	vocab := labels.NewVocabulary()
	z := zoo.NewZoo(vocab)
	var weights []map[int]float64
	for i, p := range synth.Profiles() {
		for _, s := range synth.NewDataset(vocab, p, 600, uint64(i)+11).Scenes {
			weights = append(weights, sceneWeights(&s))
		}
	}
	scenes := len(weights)
	_, test := synth.NewDataset(vocab, synth.MSCOCO(), 500, 7).Split(0.2)
	store := oracle.Build(z, test)
	for i := 0; i < store.NumItems(); i++ {
		weights = append(weights, store.Truth(i).LabelValue)
	}
	if scenes < 3000 {
		t.Fatalf("only %d generated scenes", scenes)
	}

	dense := make([]float64, labels.Total)
	var allocs float64
	for i, w := range weights {
		for l, v := range w {
			dense[l] = v
		}
		want := supportingModelsMap(z, w, 4)
		got := z.SupportingModels(dense)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("weights %d: dense ranking %v, map ranking %v", i, got, want)
		}
		if i%100 == 0 {
			allocs = max(allocs, testing.AllocsPerRun(10, func() { z.SupportingModels(dense) }))
		}
		for l := range w {
			dense[l] = 0
		}
	}
	if allocs > 1 {
		t.Fatalf("SupportingModels allocates %.1f times per call; want at most 1", allocs)
	}
}
