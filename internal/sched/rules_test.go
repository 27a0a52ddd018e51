package sched

import (
	"testing"

	"ams/internal/labels"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

func TestTableIIHasTenRules(t *testing.T) {
	rs := TableII()
	if len(rs) != 10 {
		t.Fatalf("Table II has %d rules, want 10", len(rs))
	}
	for _, r := range rs {
		if r.Factor != 2 && r.Factor != 0.5 {
			t.Fatalf("rule %q has non-paper factor %v", r.Name, r.Factor)
		}
	}
}

func mustLabel(t *testing.T, name string) labels.Label {
	t.Helper()
	l, ok := vocab.ByName(name)
	if !ok {
		t.Fatalf("missing label %q", name)
	}
	return l
}

func mustModel(t *testing.T, name string) *zoo.Model {
	t.Helper()
	m, ok := z.ByName(name)
	if !ok {
		t.Fatalf("missing model %q", name)
	}
	return m
}

// newRule is a fresh rule policy; observe feeds it one executed model's
// labels, each at confidence conf.
func newRule() *Rule { return NewRule(z, tensor.NewRNG(1)) }

func observe(p *Rule, m *zoo.Model, conf float64, ls ...labels.Label) {
	out := zoo.Output{Labels: make([]zoo.LabelConf, len(ls))}
	for i, l := range ls {
		out.Labels[i] = zoo.LabelConf{ID: l.ID, Conf: conf}
	}
	p.Observe(m.ID, out)
}

// wantUntouched fails unless every model outside the given tasks still
// has weight 1.
func wantUntouched(t *testing.T, p *Rule, tasks ...labels.Task) {
	t.Helper()
	for mi, m := range z.Models {
		touched := false
		for _, task := range tasks {
			touched = touched || m.Task == task
		}
		if !touched && p.weights[mi] != 1 {
			t.Fatalf("%s weight %v, want 1", m.Name, p.weights[mi])
		}
	}
}

func TestPersonPromotesPose(t *testing.T) {
	p := newRule()
	det := mustModel(t, "objdet-fast")
	observe(p, det, 0.9, mustLabel(t, "object/person"))
	for mi, m := range z.Models {
		w := p.weights[mi]
		switch {
		case m.Task == labels.PoseEstimation, m.Task == labels.GenderClassification:
			if w != 2 {
				t.Fatalf("%s weight %v, want 2", m.Name, w)
			}
		case m.Task == det.Task && m != det:
			if w != siblingFactor {
				t.Fatalf("%s weight %v, want the sibling demotion %v", m.Name, w, siblingFactor)
			}
		default:
			if w != 1 {
				t.Fatalf("%s weight %v, want 1", m.Name, w)
			}
		}
	}
}

func TestLowConfidenceDoesNotTrigger(t *testing.T) {
	p := newRule()
	det := mustModel(t, "objdet-fast")
	observe(p, det, 0.3, mustLabel(t, "object/person"))
	wantUntouched(t, p, det.Task)
}

func TestWrongSourceTaskDoesNotTrigger(t *testing.T) {
	p := newRule()
	// A pose model "emitting" the person label must not fire the
	// object-detection-sourced rule.
	pose := mustModel(t, "pose-openpose")
	observe(p, pose, 0.9, mustLabel(t, "object/person"))
	wantUntouched(t, p, pose.Task)
}

func TestIndoorDemotesAnimalAndSport(t *testing.T) {
	p := newRule()
	observe(p, mustModel(t, "placecls-resnet"), 0.85, mustLabel(t, "place/pub"))
	animal := mustModel(t, "objdet-animal")
	sport := mustModel(t, "action-sport")
	if p.weights[animal.ID] != 0.5 {
		t.Fatalf("animal detector weight %v, want 0.5", p.weights[animal.ID])
	}
	if p.weights[sport.ID] != 0.5 {
		t.Fatalf("sport classifier weight %v, want 0.5", p.weights[sport.ID])
	}
}

func TestOutdoorPromotesSport(t *testing.T) {
	p := newRule()
	observe(p, mustModel(t, "placecls-resnet"), 0.8, mustLabel(t, "place/mountain"))
	sport := mustModel(t, "action-sport")
	if p.weights[sport.ID] != 2 {
		t.Fatalf("sport classifier weight %v, want 2", p.weights[sport.ID])
	}
}

func TestRuleFiresOncePerImage(t *testing.T) {
	p := newRule()
	person := mustLabel(t, "object/person")
	observe(p, mustModel(t, "objdet-fast"), 0.9, person)
	observe(p, mustModel(t, "objdet-accurate"), 0.95, person)
	pose := mustModel(t, "pose-openpose")
	if p.weights[pose.ID] != 2 {
		t.Fatalf("pose weight %v after repeat trigger, want 2 (fire once)", p.weights[pose.ID])
	}
}

func TestWristPromotesHands(t *testing.T) {
	p := newRule()
	observe(p, mustModel(t, "pose-openpose"), 0.9, mustLabel(t, "pose/nose"), mustLabel(t, "pose/left wrist"))
	hand := mustModel(t, "handlmk-mvb")
	if p.weights[hand.ID] != 2 {
		t.Fatalf("hand model weight %v, want 2", p.weights[hand.ID])
	}
	// Body keypoints promote action classification once per keypoint
	// (nose and wrist both trigger), compounding to 4.
	action := mustModel(t, "action-i3d")
	if p.weights[action.ID] != 4 {
		t.Fatalf("action model weight %v, want 4", p.weights[action.ID])
	}
}

func TestWeightsAreCapped(t *testing.T) {
	p := newRule()
	// Every keypoint triggers the keypoints=>action rule; the compounded
	// weight must stop at the cap.
	var kps []labels.Label
	for _, id := range vocab.TaskLabels(labels.PoseEstimation) {
		kps = append(kps, vocab.Label(id))
	}
	observe(p, mustModel(t, "pose-openpose"), 0.9, kps...)
	action := mustModel(t, "action-i3d")
	if p.weights[action.ID] != maxWeight {
		t.Fatalf("weight %v not capped at %v", p.weights[action.ID], maxWeight)
	}
}

func TestReset(t *testing.T) {
	p := newRule()
	person := mustLabel(t, "object/person")
	observe(p, mustModel(t, "objdet-fast"), 0.9, person)
	p.Reset(1)
	wantUntouched(t, p)
	// Rules fire again after a reset.
	observe(p, mustModel(t, "objdet-fast"), 0.9, person)
	if p.weights[mustModel(t, "pose-openpose").ID] != 2 {
		t.Fatal("rule did not re-fire after Reset")
	}
}

func TestResetKeepsSiblingDemotion(t *testing.T) {
	p := newRule()
	det := mustModel(t, "objdet-fast")
	observe(p, det, 0)
	p.Reset(1)
	wantUntouched(t, p)
	observe(p, det, 0)
	if p.weights[mustModel(t, "objdet-accurate").ID] != siblingFactor {
		t.Fatal("sibling demotion lost after Reset")
	}
}

func TestSiblingDemotion(t *testing.T) {
	p := newRule()
	det := mustModel(t, "objdet-fast")
	observe(p, det, 0)
	acc := mustModel(t, "objdet-accurate")
	animal := mustModel(t, "objdet-animal")
	if p.weights[acc.ID] != siblingFactor || p.weights[animal.ID] != siblingFactor {
		t.Fatalf("siblings not demoted: %v %v", p.weights[acc.ID], p.weights[animal.ID])
	}
	// The executed model's own weight is untouched (the policy never
	// reselects executed models anyway), and so are other tasks.
	if p.weights[det.ID] != 1 {
		t.Fatalf("executed model weight changed: %v", p.weights[det.ID])
	}
	wantUntouched(t, p, det.Task)
}

func TestSiblingDemotionComposesWithRules(t *testing.T) {
	p := newRule()
	observe(p, mustModel(t, "objdet-fast"), 0.9, mustLabel(t, "object/person"))
	// Pose promoted by the rule and not demoted (different task).
	pose := mustModel(t, "pose-openpose")
	if p.weights[pose.ID] != 2 {
		t.Fatalf("pose weight %v, want 2", p.weights[pose.ID])
	}
	// Running a pose model then demotes its siblings below the promoted
	// level but keeps the rule boost partially.
	observe(p, pose, 0)
	flow := mustModel(t, "pose-flow")
	if w := p.weights[flow.ID]; w != 2*siblingFactor {
		t.Fatalf("pose sibling weight %v, want 2*%v", w, siblingFactor)
	}
}

func TestSiblingDemotionFloor(t *testing.T) {
	p := newRule()
	a := mustModel(t, "gender-fast")
	for i := 0; i < 20; i++ {
		observe(p, a, 0)
	}
	if w := p.weights[mustModel(t, "gender-vgg").ID]; w != minWeight {
		t.Fatalf("weight %v, want the floor %v", w, minWeight)
	}
}
