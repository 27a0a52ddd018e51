// Package rules implements the handcrafted-rule baseline of the paper's
// §VI-C (Table II): pair-wise execution rules that scale the probability
// of running models for a task once certain labels have been observed.
// All models start with equal execution probability; each triggered rule
// multiplies a task's probability by a fixed factor (2× to promote,
// 0.5× to demote).
package rules

import (
	"ams/internal/labels"
	"ams/internal/zoo"
)

// Rule is one handcrafted execution rule. When a label satisfying Trigger
// is emitted by an executed model of task From, the execution weight of
// every model matched by Target is multiplied by Factor.
type Rule struct {
	Name    string
	From    labels.Task
	Trigger func(v *labels.Vocabulary, labelID int) bool
	Target  func(m *zoo.Model) bool
	Factor  float64
}

// matchLabel builds a trigger matching one exact label name.
func matchLabel(name string) func(*labels.Vocabulary, int) bool {
	return func(v *labels.Vocabulary, id int) bool {
		return v.Label(id).Name == name
	}
}

// matchTask builds a target matching every model of a task.
func matchTask(t labels.Task) func(*zoo.Model) bool {
	return func(m *zoo.Model) bool { return m.Task == t }
}

// TableII returns the ten handcrafted rules of the paper's Table II,
// expressed against this repository's vocabulary and model zoo.
func TableII() []Rule {
	return []Rule{
		{
			Name: "person => pose estimation", From: labels.ObjectDetection,
			Trigger: matchLabel("object/person"),
			Target:  matchTask(labels.PoseEstimation), Factor: 2,
		},
		{
			Name: "person => gender classification", From: labels.ObjectDetection,
			Trigger: matchLabel("object/person"),
			Target:  matchTask(labels.GenderClassification), Factor: 2,
		},
		{
			Name: "dog => dog classification", From: labels.ObjectDetection,
			Trigger: matchLabel("object/dog"),
			Target:  matchTask(labels.DogClassification), Factor: 2,
		},
		{
			Name: "face => face landmarks", From: labels.FaceDetection,
			Trigger: matchLabel("face/face"),
			Target:  matchTask(labels.FaceLandmark), Factor: 2,
		},
		{
			Name: "face => emotion classification", From: labels.FaceDetection,
			Trigger: matchLabel("face/face"),
			Target:  matchTask(labels.EmotionClassification), Factor: 2,
		},
		{
			Name: "body keypoints => action classification", From: labels.PoseEstimation,
			Trigger: func(v *labels.Vocabulary, id int) bool {
				return v.Label(id).Task == labels.PoseEstimation
			},
			Target: matchTask(labels.ActionClassification), Factor: 2,
		},
		{
			Name: "wrist keypoints => hand landmarks", From: labels.PoseEstimation,
			Trigger: func(v *labels.Vocabulary, id int) bool {
				n := v.Label(id).Name
				return n == "pose/left wrist" || n == "pose/right wrist"
			},
			Target: matchTask(labels.HandLandmark), Factor: 2,
		},
		{
			Name: "indoor place => animal object detection (demote)",
			From: labels.PlaceClassification,
			Trigger: func(v *labels.Vocabulary, id int) bool {
				l := v.Label(id)
				return l.Task == labels.PlaceClassification && l.Indoor
			},
			Target: func(m *zoo.Model) bool { return m.Name == "objdet-animal" },
			Factor: 0.5,
		},
		{
			Name: "indoor place => sport action classification (demote)",
			From: labels.PlaceClassification,
			Trigger: func(v *labels.Vocabulary, id int) bool {
				l := v.Label(id)
				return l.Task == labels.PlaceClassification && l.Indoor
			},
			Target: func(m *zoo.Model) bool { return m.Name == "action-sport" },
			Factor: 0.5,
		},
		{
			Name: "outdoor place => sport action classification",
			From: labels.PlaceClassification,
			Trigger: func(v *labels.Vocabulary, id int) bool {
				l := v.Label(id)
				return l.Task == labels.PlaceClassification && !l.Indoor
			},
			Target: func(m *zoo.Model) bool { return m.Name == "action-sport" },
			Factor: 2,
		},
	}
}

// Weight bounds keep repeated rule applications finite: a rule that fires
// per triggering label (e.g. one per detected body keypoint) compounds
// multiplicatively up to these caps.
const (
	minWeight = 1.0 / 64
	maxWeight = 64
)

// Engine maintains per-model execution weights for one image and applies
// rules as labels arrive. A rule fires once per distinct triggering label,
// so multi-label evidence (many body keypoints) compounds its effect.
type Engine struct {
	vocab   *labels.Vocabulary
	zoo     *zoo.Zoo
	rules   []Rule
	weights []float64
	fired   []map[int]bool // rule index -> triggering label IDs consumed

	// siblingFactor, when in (0,1), demotes the remaining models of a
	// task once one of its models has executed — the common-sense "don't
	// immediately rerun a task whose labels you already have" heuristic
	// that keeps the rule baseline from burning its promotions on
	// redundant same-task models. 0 disables it.
	siblingFactor float64
}

// NewEngine starts an engine with uniform weights.
func NewEngine(v *labels.Vocabulary, z *zoo.Zoo, rs []Rule) *Engine {
	e := &Engine{vocab: v, zoo: z, rules: rs}
	e.weights = make([]float64, len(z.Models))
	e.fired = make([]map[int]bool, len(rs))
	e.Reset()
	return e
}

// EnableSiblingDemotion turns on demotion of a just-executed task's
// remaining models by the given factor in (0,1).
func (e *Engine) EnableSiblingDemotion(factor float64) {
	if factor <= 0 || factor >= 1 {
		panic("rules: sibling demotion factor must be in (0,1)")
	}
	e.siblingFactor = factor
}

// ObserveOutput feeds the labels a just-executed model emitted; matching
// rules adjust the weights of their target models once per distinct
// triggering label.
func (e *Engine) ObserveOutput(from *zoo.Model, out []zoo.LabelConf) {
	if e.siblingFactor > 0 {
		for mi, m := range e.zoo.Models {
			if m.Task == from.Task && m.ID != from.ID {
				w := e.weights[mi] * e.siblingFactor
				if w < minWeight {
					w = minWeight
				}
				e.weights[mi] = w
			}
		}
	}
	for ri := range e.rules {
		r := &e.rules[ri]
		if r.From != from.Task {
			continue
		}
		for _, lc := range out {
			if lc.Conf < zoo.ValuableThreshold || e.fired[ri][lc.ID] {
				continue
			}
			if r.Trigger(e.vocab, lc.ID) {
				e.fired[ri][lc.ID] = true
				for mi, m := range e.zoo.Models {
					if r.Target(m) {
						w := e.weights[mi] * r.Factor
						if w < minWeight {
							w = minWeight
						}
						if w > maxWeight {
							w = maxWeight
						}
						e.weights[mi] = w
					}
				}
			}
		}
	}
}

// Weight returns the current execution weight of model mi.
func (e *Engine) Weight(mi int) float64 { return e.weights[mi] }

// Reset restores uniform weights for the next image.
func (e *Engine) Reset() {
	for i := range e.weights {
		e.weights[i] = 1
	}
	for i := range e.fired {
		e.fired[i] = make(map[int]bool)
	}
}
