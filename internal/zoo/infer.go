package zoo

import (
	"fmt"
	"sync/atomic"

	"ams/internal/labels"
	"ams/internal/synth"
	"ams/internal/tensor"
)

// inferCount counts every simulated model execution process-wide. Tests
// and recovery probes read it through Inferences to assert that a replay
// path served memoized outputs instead of re-running models.
var inferCount atomic.Int64

// Inferences returns the total number of model executions performed by
// this process so far. Deltas around an operation measure how much real
// inference it triggered (zero for a fully memoized replay).
func Inferences() int64 { return inferCount.Load() }

// ValuableThreshold is the confidence at or above which a label counts as
// valuable. The paper treats high-confidence labels as the valuable output
// and low-confidence emissions as waste.
const ValuableThreshold = 0.5

// Infer simulates executing the model on a scene. The result is a pure
// function of (scene, model): re-running the same pair yields the same
// output, which is what lets the oracle precompute "no policy" ground
// truth once and replay it.
func (m *Model) Infer(s *synth.Scene) Output {
	inferCount.Add(1)
	// Emissions land in a stack array; only the deduplicated result is
	// copied out, so an inference allocates its output and nothing else.
	// An emission list longer than the array (FaceLandmark's keypoints)
	// spills to the heap through append and stays correct.
	var buf [64]LabelConf
	emitted := dedupe(m.emissions(s, buf[:0]))
	if len(emitted) == 0 {
		return Output{}
	}
	return Output{Labels: append(make([]LabelConf, 0, len(emitted)), emitted...)}
}

// emissions appends the model's raw detections on the scene to dst, in
// emission order and before deduplication, and returns the extended
// slice.
func (m *Model) emissions(s *synth.Scene, dst []LabelConf) []LabelConf {
	r := m.rng(s)
	emit := func(id int, conf float64) {
		if conf < 0.01 {
			conf = 0.01
		}
		if conf > 0.99 {
			conf = 0.99
		}
		dst = append(dst, LabelConf{ID: id, Conf: conf})
	}
	// truePos draws a confidence for a concept the model actually found;
	// with probability LowConf the hit only surfaces below threshold
	// (e.g. the paper's "Person (0.43)").
	truePos := func(id int) {
		if r.Bool(m.LowConf) {
			emit(id, r.Range(0.10, ValuableThreshold-0.02))
			return
		}
		c := r.NormMeanStd(m.ConfMean, m.ConfStd)
		if c < ValuableThreshold {
			c = ValuableThreshold + float64((ValuableThreshold-c)*0.2)
		}
		emit(id, c)
	}

	switch m.Task {
	case labels.ObjectDetection:
		for _, id := range s.Objects {
			if !m.SupportsLabel(id) {
				continue
			}
			if r.Bool(m.Recall) {
				truePos(id)
			}
		}
		m.falsePositives(r, emit)

	case labels.PlaceClassification:
		if r.Bool(m.Recall) {
			truePos(s.Place)
		} else {
			// Misclassification: a neighbouring scene at modest confidence.
			emit(m.neighbour(r, s.Place), r.Range(0.3, 0.7))
		}
		// Runner-up guesses at low confidence, like "beer hall 0.198".
		for i := 0; i < 1+r.Intn(2); i++ {
			emit(m.randomSupported(r), r.Range(0.05, 0.35))
		}

	case labels.FaceDetection:
		if s.HasFace() {
			if r.Bool(m.Recall) {
				truePos(m.Supported[0])
			}
		} else if r.Bool(m.FPRate) {
			emit(m.Supported[0], r.Range(0.1, 0.4))
		}

	case labels.FaceLandmark:
		if s.HasFace() && r.Bool(m.Recall) {
			// A detected face yields most of the 70 keypoints.
			n := len(m.Supported)
			keep := n - r.Intn(n/4+1)
			// RNG.Perm's fill and Shuffle, into a stack array: the same
			// draws, and a heap copy only past 70 keypoints.
			var idx [70]int
			perm := idx[:0]
			for i := range n {
				perm = append(perm, i)
			}
			r.Shuffle(perm)
			for _, i := range perm[:keep] {
				truePos(m.Supported[i])
			}
		}

	case labels.PoseEstimation:
		if s.HasPerson() {
			for _, id := range s.PoseKP {
				if r.Bool(m.Recall) {
					truePos(id)
				}
			}
		} else if r.Bool(m.FPRate) {
			emit(m.randomSupported(r), r.Range(0.1, 0.4))
		}

	case labels.EmotionClassification:
		if s.HasFace() && s.Emotion >= 0 {
			if r.Bool(m.Recall) {
				truePos(s.Emotion)
			} else {
				emit(m.neighbour(r, s.Emotion), r.Range(0.3, 0.6))
			}
			if r.Bool(0.3) {
				emit(m.randomSupported(r), r.Range(0.05, 0.3))
			}
		} else if r.Bool(m.FPRate) {
			emit(m.randomSupported(r), r.Range(0.1, 0.35))
		}

	case labels.GenderClassification:
		if s.HasFace() && s.Gender >= 0 {
			if r.Bool(m.Recall) {
				truePos(s.Gender)
			} else {
				emit(m.neighbour(r, s.Gender), r.Range(0.35, 0.6))
			}
		} else if r.Bool(m.FPRate) {
			emit(m.randomSupported(r), r.Range(0.1, 0.35))
		}

	case labels.ActionClassification:
		if s.HasPerson() && s.Action >= 0 && m.SupportsLabel(s.Action) {
			if r.Bool(m.Recall) {
				truePos(s.Action)
			} else {
				emit(m.neighbour(r, s.Action), r.Range(0.3, 0.6))
			}
		} else if s.HasPerson() && r.Bool(m.FPRate) {
			// A person with no nameable (or unsupported) action still makes
			// classifiers guess at low confidence.
			emit(m.randomSupported(r), r.Range(0.1, 0.45))
		}

	case labels.HandLandmark:
		if len(s.HandKP) > 0 && r.Bool(m.Recall) {
			for _, id := range s.HandKP {
				if r.Bool(m.Recall) {
					truePos(id)
				}
			}
		}

	case labels.DogClassification:
		if s.HasDog() {
			if r.Bool(m.Recall) {
				truePos(s.Dog)
			} else {
				emit(m.neighbour(r, s.Dog), r.Range(0.3, 0.6))
			}
			if r.Bool(0.25) {
				emit(m.randomSupported(r), r.Range(0.05, 0.3))
			}
		} else if r.Bool(m.FPRate) {
			emit(m.randomSupported(r), r.Range(0.1, 0.35))
		}

	default:
		panic(fmt.Sprintf("zoo: model %s has unknown task %v", m.Name, m.Task))
	}

	return dst
}

// falsePositives sprinkles spurious low-confidence detections.
func (m *Model) falsePositives(r *tensor.RNG, emit func(int, float64)) {
	n := 0
	for r.Bool(m.FPRate/(float64(n)+1)) && n < 3 {
		emit(m.randomSupported(r), r.Range(0.05, 0.45))
		n++
	}
}

// randomSupported picks a uniformly random supported label.
func (m *Model) randomSupported(r *tensor.RNG) int {
	return m.Supported[r.Intn(len(m.Supported))]
}

// neighbour returns a supported label near the given one — the plausible
// confusion class for a misclassification.
func (m *Model) neighbour(r *tensor.RNG, id int) int {
	for i := 0; i < 8; i++ {
		c := m.randomSupported(r)
		if c != id {
			return c
		}
	}
	return m.Supported[0]
}

// dedupe keeps the highest confidence per label, in first-seen order,
// compacting ls in place and returning the kept prefix. A linear scan
// beats a map at the handful of labels one inference emits, and
// allocates nothing.
func dedupe(ls []LabelConf) []LabelConf {
	n := 0
	for _, lc := range ls {
		seen := false
		for i := range ls[:n] {
			if ls[i].ID == lc.ID {
				if lc.Conf > ls[i].Conf {
					ls[i].Conf = lc.Conf
				}
				seen = true
				break
			}
		}
		if !seen {
			ls[n] = lc
			n++
		}
	}
	return ls[:n]
}
