package sched

import (
	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// ExecRule is one handcrafted execution rule of the paper's §VI-C
// baseline (Table II). When a label satisfying Trigger is emitted by an
// executed model of task From, the execution weight of every model
// matched by Target is multiplied by Factor (2× to promote, 0.5× to
// demote).
type ExecRule struct {
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
func TableII() []ExecRule {
	return []ExecRule{
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

// The rule weights' bounds keep repeated applications finite: a rule
// that fires per triggering label (e.g. one per detected body keypoint)
// compounds multiplicatively up to these caps. siblingFactor demotes the
// remaining models of a task once one of its models has executed — the
// common-sense "don't immediately rerun a task whose labels you already
// have" heuristic that keeps the baseline from burning its promotions on
// redundant same-task models.
const (
	minWeight     = 1.0 / 64
	maxWeight     = 64
	siblingFactor = 0.4
)

// Rule is the handcrafted-rule policy. Models start with equal
// weights; fired Table II rules multiply their targets' weights, once per
// distinct triggering label, so multi-label evidence (many body
// keypoints) compounds. Selection takes a uniformly random model among
// those with the current maximum weight, so with no evidence the policy
// is the random baseline, and once a rule fires its promoted models run
// immediately — without that sharpening the trigger cascade (detector →
// pose → action) fires too late in a 30-model pool to move the schedule
// at all.
type Rule struct {
	z       *zoo.Zoo
	rng     *tensor.RNG
	rules   []ExecRule
	weights []float64      // per-model execution weight for the current item
	fired   []map[int]bool // rule index -> triggering label IDs consumed
}

// NewRule returns the rule-based policy over Table II.
func NewRule(z *zoo.Zoo, rng *tensor.RNG) *Rule {
	p := &Rule{z: z, rng: rng, rules: TableII(), weights: make([]float64, len(z.Models))}
	p.fired = make([]map[int]bool, len(p.rules))
	for i := range p.fired {
		p.fired[i] = make(map[int]bool)
	}
	p.Reset(0)
	return p
}

// Name implements sim.Policy.
func (p *Rule) Name() string { return "Rule" }

// Reset implements sim.Policy: uniform weights, no rule fired.
func (p *Rule) Reset(int) {
	for i := range p.weights {
		p.weights[i] = 1
	}
	for _, f := range p.fired {
		clear(f)
	}
}

// Next implements sim.Policy.
func (p *Rule) Next(t *oracle.Tracker, c sim.Constraints) int {
	var feasible []int
	for m := range t.Candidates() {
		if c.Allows(p.z.Models[m]) {
			feasible = append(feasible, m)
		}
	}
	if len(feasible) == 0 {
		return -1
	}
	const eps = 1e-9
	best := 0.0
	for _, m := range feasible {
		best = max(best, p.weights[m])
	}
	var top []int
	for _, m := range feasible {
		if p.weights[m] >= best-eps {
			top = append(top, m)
		}
	}
	return top[p.rng.Intn(len(top))]
}

// Observe implements sim.Policy: it demotes the executed model's task
// siblings, then applies the rules its valuable labels trigger.
func (p *Rule) Observe(m int, out zoo.Output) {
	from := p.z.Models[m]
	for mi, sib := range p.z.Models {
		if sib.Task == from.Task && sib.ID != from.ID {
			p.weights[mi] = max(p.weights[mi]*siblingFactor, minWeight)
		}
	}
	for ri := range p.rules {
		r := &p.rules[ri]
		if r.From != from.Task {
			continue
		}
		for _, lc := range out.Labels {
			if lc.Conf < zoo.ValuableThreshold || p.fired[ri][lc.ID] || !r.Trigger(p.z.Vocab, lc.ID) {
				continue
			}
			p.fired[ri][lc.ID] = true
			for mi, target := range p.z.Models {
				if r.Target(target) {
					p.weights[mi] = min(max(p.weights[mi]*r.Factor, minWeight), maxWeight)
				}
			}
		}
	}
}
