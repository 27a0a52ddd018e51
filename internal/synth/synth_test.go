package synth

import (
	"testing"

	"ams/internal/labels"
)

var vocab = labels.NewVocabulary()

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(vocab, MSCOCO(), 50, 7)
	b := NewDataset(vocab, MSCOCO(), 50, 7)
	for i := range a.Scenes {
		if a.Scenes[i].Seed != b.Scenes[i].Seed ||
			a.Scenes[i].Place != b.Scenes[i].Place ||
			a.Scenes[i].Persons != b.Scenes[i].Persons {
			t.Fatalf("scene %d differs across same-seed generations", i)
		}
	}
	c := NewDataset(vocab, MSCOCO(), 50, 8)
	diff := 0
	for i := range a.Scenes {
		if a.Scenes[i].Place != c.Scenes[i].Place {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestSceneInvariants(t *testing.T) {
	for _, p := range Profiles() {
		d := NewDataset(vocab, p, 300, 11)
		for i, s := range d.Scenes {
			if s.ID != i {
				t.Fatalf("%s scene %d has ID %d", p.Name, i, s.ID)
			}
			if s.Faces > s.Persons {
				t.Fatalf("%s scene %d: faces %d > persons %d", p.Name, i, s.Faces, s.Persons)
			}
			if s.Faces > 0 && (s.Emotion < 0 || s.Gender < 0) {
				t.Fatalf("%s scene %d: face without emotion/gender", p.Name, i)
			}
			if s.Faces == 0 && (s.Emotion >= 0 || s.Gender >= 0) {
				t.Fatalf("%s scene %d: emotion/gender without face", p.Name, i)
			}
			if s.Persons == 0 && (len(s.PoseKP) > 0 || s.Action >= 0 || len(s.HandKP) > 0) {
				t.Fatalf("%s scene %d: person-conditioned concepts without person", p.Name, i)
			}
			if vocabTask(t, s.Place) != labels.PlaceClassification {
				t.Fatalf("%s scene %d: place label from wrong task", p.Name, i)
			}
			if s.Action >= 0 && vocabTask(t, s.Action) != labels.ActionClassification {
				t.Fatalf("%s scene %d: action label from wrong task", p.Name, i)
			}
			if s.Dog >= 0 && vocabTask(t, s.Dog) != labels.DogClassification {
				t.Fatalf("%s scene %d: dog label from wrong task", p.Name, i)
			}
			seen := map[int]bool{}
			for _, o := range s.Objects {
				if vocabTask(t, o) != labels.ObjectDetection {
					t.Fatalf("%s scene %d: object label from wrong task", p.Name, i)
				}
				if seen[o] {
					t.Fatalf("%s scene %d: duplicate object %d", p.Name, i, o)
				}
				seen[o] = true
			}
		}
	}
}

func vocabTask(t *testing.T, id int) labels.Task {
	t.Helper()
	if id < 0 || id >= labels.Total {
		t.Fatalf("label id %d out of range", id)
	}
	return vocab.Label(id).Task
}

func TestPersonImpliesPersonObject(t *testing.T) {
	person, _ := vocab.ByName("object/person")
	d := NewDataset(vocab, MSCOCO(), 200, 3)
	for _, s := range d.Scenes {
		has := false
		for _, o := range s.Objects {
			if o == person.ID {
				has = true
			}
		}
		if s.Persons > 0 && !has {
			t.Fatalf("scene %d has persons but no person object", s.ID)
		}
		if s.Persons == 0 && has {
			t.Fatalf("scene %d has person object but no persons", s.ID)
		}
	}
}

func TestDogImpliesDogObject(t *testing.T) {
	dogObj, _ := vocab.ByName("object/dog")
	d := NewDataset(vocab, VOC2012(), 400, 5)
	for _, s := range d.Scenes {
		if s.Dog >= 0 {
			found := false
			for _, o := range s.Objects {
				if o == dogObj.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("scene %d has a dog breed but no object/dog", s.ID)
			}
		}
	}
}

func TestProfilesDiffer(t *testing.T) {
	// Stanford40 must be action-heavy relative to Places365.
	s40 := NewDataset(vocab, Stanford40(), 500, 13)
	p365 := NewDataset(vocab, Places365(), 500, 13)
	countActions := func(d *Dataset) int {
		n := 0
		for _, s := range d.Scenes {
			if s.Action >= 0 {
				n++
			}
		}
		return n
	}
	if countActions(s40) <= 2*countActions(p365) {
		t.Fatalf("Stanford40 actions (%d) not dominant over Places365 (%d)",
			countActions(s40), countActions(p365))
	}
}

func TestSplitRatio(t *testing.T) {
	d := NewDataset(vocab, MirFlickr(), 1000, 17)
	train, test := d.Split(0.2)
	if len(train)+len(test) != 1000 {
		t.Fatalf("split lost scenes: %d + %d", len(train), len(test))
	}
	ratio := float64(len(train)) / 1000
	if ratio < 0.15 || ratio > 0.25 {
		t.Fatalf("train fraction %v too far from 0.2", ratio)
	}
	// No overlap.
	ids := map[int]bool{}
	for _, s := range train {
		ids[s.ID] = true
	}
	for _, s := range test {
		if ids[s.ID] {
			t.Fatalf("scene %d in both splits", s.ID)
		}
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	d := NewDataset(vocab, MirFlickr(), 10, 17)
	for _, frac := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Split(%v) did not panic", frac)
				}
			}()
			d.Split(frac)
		}()
	}
}

func TestChunkedCorrelation(t *testing.T) {
	d := NewDataset(vocab, MSCOCO(), 60, 19)
	c := d.Chunked(vocab, 10, 23)
	if c.Len() != d.Len() {
		t.Fatalf("chunked size %d != %d", c.Len(), d.Len())
	}
	// Within a chunk the latent structure repeats; seeds differ.
	for chunk := 0; chunk < 6; chunk++ {
		base := c.Scenes[chunk*10]
		for k := 1; k < 10; k++ {
			s := c.Scenes[chunk*10+k]
			if s.Place != base.Place || s.Persons != base.Persons || s.Dog != base.Dog {
				t.Fatalf("chunk %d scene %d diverges from base structure", chunk, k)
			}
			if s.Seed == base.Seed {
				t.Fatalf("chunk %d scene %d reuses the base noise seed", chunk, k)
			}
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range Profiles() {
		got, err := ProfileByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("ProfileByName(%q) failed: %v", p.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("ProfileByName accepted junk")
	}
}

func TestNewDatasetPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDataset(0) did not panic")
		}
	}()
	NewDataset(vocab, MSCOCO(), 0, 1)
}
