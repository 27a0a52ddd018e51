package zoo

import (
	"reflect"
	"slices"
	"testing"

	"ams/internal/synth"
	"ams/internal/tensor"
)

// mapDedupe is the map-based deduplication Infer used before it
// deduplicated in place: the highest confidence per label, in first-seen
// order, as a fresh output. It is the reference the in-place scan is
// held to.
func mapDedupe(o Output) Output {
	if len(o.Labels) < 2 {
		return o
	}
	best := make(map[int]float64, len(o.Labels))
	order := make([]int, 0, len(o.Labels))
	for _, lc := range o.Labels {
		if prev, ok := best[lc.ID]; !ok {
			best[lc.ID] = lc.Conf
			order = append(order, lc.ID)
		} else if lc.Conf > prev {
			best[lc.ID] = lc.Conf
		}
	}
	out := Output{Labels: make([]LabelConf, 0, len(order))}
	for _, id := range order {
		out.Labels = append(out.Labels, LabelConf{ID: id, Conf: best[id]})
	}
	return out
}

// referenceInfer is the inference pipeline before the stack buffer:
// emissions appended to a nil slice, then deduplicated through a map.
func referenceInfer(m *Model, s *synth.Scene) Output {
	return mapDedupe(Output{Labels: m.emissions(s, nil)})
}

func TestDedupeMatchesTheMapReference(t *testing.T) {
	cases := [][]LabelConf{
		nil,
		{},
		{{ID: 7, Conf: 0.4}},
		{{ID: 3, Conf: 0.2}, {ID: 3, Conf: 0.9}}, // a later repeat wins
		{{ID: 3, Conf: 0.9}, {ID: 5, Conf: 0.1}, {ID: 3, Conf: 0.2}}, // an earlier one stays
		{{ID: 1, Conf: 0.5}, {ID: 2, Conf: 0.5}, {ID: 1, Conf: 0.5}, {ID: 2, Conf: 0.6}},
	}
	r := tensor.NewRNG(46)
	for _, n := range []int{0, 1, 2, 5, 17, 63, 64, 65, 100, 200} {
		for rep := 0; rep < 20; rep++ {
			ls := make([]LabelConf, n)
			ids := 1 + r.Intn(2*n+1) // few ids force repeats, many leave most unique
			for i := range ls {
				ls[i] = LabelConf{ID: r.Intn(ids), Conf: r.Range(0.01, 0.99)}
			}
			cases = append(cases, ls)
		}
	}
	for i, ls := range cases {
		want := mapDedupe(Output{Labels: slices.Clone(ls)}).Labels
		got := dedupe(slices.Clone(ls))
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%d emissions): in-place dedupe %v, map reference %v", i, len(ls), got, want)
		}
	}
}

func TestInferMatchesTheReferencePipeline(t *testing.T) {
	overflowed := false
	for _, p := range []synth.Profile{synth.MSCOCO(), synth.Stanford40(), synth.Places365()} {
		d := synth.NewDataset(vocab, p, 60, 46)
		for _, m := range z.Models {
			for i := range d.Scenes {
				s := &d.Scenes[i]
				got, want := m.Infer(s), referenceInfer(m, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s scene %d: Infer %v, reference %v", m.Name, p.Name, i, got, want)
				}
				if len(got.Labels) > 0 && len(got.Labels) != cap(got.Labels) {
					t.Fatalf("%s on %s scene %d: output len %d cap %d, want exact size",
						m.Name, p.Name, i, len(got.Labels), cap(got.Labels))
				}
				overflowed = overflowed || len(m.emissions(s, nil)) > 64
			}
		}
	}
	if !overflowed {
		t.Fatal("no sampled inference emitted past the stack buffer; the spill path went unchecked")
	}
}

// TestInferAllocatesOnlyItsOutput pins the cost of an inference: the
// exact-size output and nothing else, for every model, FaceLandmark's
// keypoint permutation included. Only emissions that spill past the
// 64-entry stack array (a detected face's up to 70 keypoints) cost one
// more.
func TestInferAllocatesOnlyItsOutput(t *testing.T) {
	d := synth.NewDataset(vocab, synth.MSCOCO(), 12, 47)
	for _, m := range z.Models {
		for i := range d.Scenes {
			s := &d.Scenes[i]
			want := 1.0
			if len(m.emissions(s, nil)) > 64 {
				want = 2
			}
			if n := testing.AllocsPerRun(20, func() { m.Infer(s) }); n > want {
				t.Fatalf("%s on scene %d: %.1f allocations per Infer, want at most %v", m.Name, i, n, want)
			}
		}
	}
}
