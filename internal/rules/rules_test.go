package rules

import (
	"testing"

	"ams/internal/labels"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
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

func TestPersonPromotesPose(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	person := mustLabel(t, "object/person")
	det := mustModel(t, "objdet-fast")
	e.ObserveOutput(det, []zoo.LabelConf{{ID: person.ID, Conf: 0.9}})
	for mi, m := range z.Models {
		w := e.Weight(mi)
		switch m.Task {
		case labels.PoseEstimation, labels.GenderClassification:
			if w != 2 {
				t.Fatalf("%s weight %v, want 2", m.Name, w)
			}
		default:
			if w != 1 {
				t.Fatalf("%s weight %v, want 1", m.Name, w)
			}
		}
	}
}

func TestLowConfidenceDoesNotTrigger(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	person := mustLabel(t, "object/person")
	det := mustModel(t, "objdet-fast")
	e.ObserveOutput(det, []zoo.LabelConf{{ID: person.ID, Conf: 0.3}})
	for mi := range z.Models {
		if e.Weight(mi) != 1 {
			t.Fatal("low-confidence label triggered a rule")
		}
	}
}

func TestWrongSourceTaskDoesNotTrigger(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	person := mustLabel(t, "object/person")
	// A pose model "emitting" the person label must not fire the
	// object-detection-sourced rule.
	pose := mustModel(t, "pose-openpose")
	e.ObserveOutput(pose, []zoo.LabelConf{{ID: person.ID, Conf: 0.9}})
	for mi := range z.Models {
		if e.Weight(mi) != 1 {
			t.Fatal("rule fired from the wrong source task")
		}
	}
}

func TestIndoorDemotesAnimalAndSport(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	pub := mustLabel(t, "place/pub")
	place := mustModel(t, "placecls-resnet")
	e.ObserveOutput(place, []zoo.LabelConf{{ID: pub.ID, Conf: 0.85}})
	animal := mustModel(t, "objdet-animal")
	sport := mustModel(t, "action-sport")
	if e.Weight(animal.ID) != 0.5 {
		t.Fatalf("animal detector weight %v, want 0.5", e.Weight(animal.ID))
	}
	if e.Weight(sport.ID) != 0.5 {
		t.Fatalf("sport classifier weight %v, want 0.5", e.Weight(sport.ID))
	}
}

func TestOutdoorPromotesSport(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	mountain := mustLabel(t, "place/mountain")
	place := mustModel(t, "placecls-resnet")
	e.ObserveOutput(place, []zoo.LabelConf{{ID: mountain.ID, Conf: 0.8}})
	sport := mustModel(t, "action-sport")
	if e.Weight(sport.ID) != 2 {
		t.Fatalf("sport classifier weight %v, want 2", e.Weight(sport.ID))
	}
}

func TestRuleFiresOncePerImage(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	person := mustLabel(t, "object/person")
	a := mustModel(t, "objdet-fast")
	b := mustModel(t, "objdet-accurate")
	e.ObserveOutput(a, []zoo.LabelConf{{ID: person.ID, Conf: 0.9}})
	e.ObserveOutput(b, []zoo.LabelConf{{ID: person.ID, Conf: 0.95}})
	pose := mustModel(t, "pose-openpose")
	if e.Weight(pose.ID) != 2 {
		t.Fatalf("pose weight %v after repeat trigger, want 2 (fire once)", e.Weight(pose.ID))
	}
}

func TestWristPromotesHands(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	wrist := mustLabel(t, "pose/left wrist")
	nose := mustLabel(t, "pose/nose")
	pose := mustModel(t, "pose-openpose")
	e.ObserveOutput(pose, []zoo.LabelConf{{ID: nose.ID, Conf: 0.9}, {ID: wrist.ID, Conf: 0.8}})
	hand := mustModel(t, "handlmk-mvb")
	if e.Weight(hand.ID) != 2 {
		t.Fatalf("hand model weight %v, want 2", e.Weight(hand.ID))
	}
	// Body keypoints promote action classification once per keypoint
	// (nose and wrist both trigger), compounding to 4.
	action := mustModel(t, "action-i3d")
	if e.Weight(action.ID) != 4 {
		t.Fatalf("action model weight %v, want 4", e.Weight(action.ID))
	}
}

func TestWeightsAreCapped(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	pose := mustModel(t, "pose-openpose")
	// Every keypoint triggers the keypoints=>action rule; the compounded
	// weight must stop at the cap.
	var out []zoo.LabelConf
	for _, id := range vocab.TaskLabels(labels.PoseEstimation) {
		out = append(out, zoo.LabelConf{ID: id, Conf: 0.9})
	}
	e.ObserveOutput(pose, out)
	action := mustModel(t, "action-i3d")
	if e.Weight(action.ID) != 64 {
		t.Fatalf("weight %v not capped at 64", e.Weight(action.ID))
	}
}

func TestReset(t *testing.T) {
	e := NewEngine(vocab, z, TableII())
	person := mustLabel(t, "object/person")
	e.ObserveOutput(mustModel(t, "objdet-fast"), []zoo.LabelConf{{ID: person.ID, Conf: 0.9}})
	e.Reset()
	for mi := range z.Models {
		if e.Weight(mi) != 1 {
			t.Fatal("Reset did not restore uniform weights")
		}
	}
	// Rules can fire again after reset.
	e.ObserveOutput(mustModel(t, "objdet-fast"), []zoo.LabelConf{{ID: person.ID, Conf: 0.9}})
	pose := mustModel(t, "pose-openpose")
	if e.Weight(pose.ID) != 2 {
		t.Fatal("rule did not re-fire after Reset")
	}
}
