package labels

import (
	"testing"
)

func TestVocabularyTotals(t *testing.T) {
	v := NewVocabulary()
	if v.Len() != Total {
		t.Fatalf("vocabulary size = %d, want %d", v.Len(), Total)
	}
	sum := 0
	for _, task := range Tasks() {
		n := len(v.TaskLabels(task))
		if n != task.LabelCount() {
			t.Fatalf("%v has %d labels, want %d", task, n, task.LabelCount())
		}
		sum += n
	}
	if sum != Total {
		t.Fatalf("task label counts sum to %d, want %d", sum, Total)
	}
}

func TestTableICounts(t *testing.T) {
	// The exact per-task counts from Table I.
	want := map[Task]int{
		ObjectDetection:       80,
		PlaceClassification:   365,
		FaceDetection:         1,
		FaceLandmark:          70,
		PoseEstimation:        17,
		EmotionClassification: 7,
		GenderClassification:  2,
		ActionClassification:  400,
		HandLandmark:          42,
		DogClassification:     120,
	}
	for task, n := range want {
		if task.LabelCount() != n {
			t.Fatalf("%v count = %d, want %d", task, task.LabelCount(), n)
		}
	}
}

func TestLabelIDsDenseAndConsistent(t *testing.T) {
	v := NewVocabulary()
	for id := 0; id < v.Len(); id++ {
		l := v.Label(id)
		if l.ID != id {
			t.Fatalf("label %d stores ID %d", id, l.ID)
		}
		got, ok := v.ByName(l.Name)
		if !ok || got.ID != id {
			t.Fatalf("ByName(%q) = %+v, %v", l.Name, got, ok)
		}
	}
}

func TestNamesUnique(t *testing.T) {
	v := NewVocabulary()
	seen := make(map[string]bool, v.Len())
	for id := 0; id < v.Len(); id++ {
		n := v.Label(id).Name
		if seen[n] {
			t.Fatalf("duplicate label name %q", n)
		}
		seen[n] = true
	}
}

func TestTaskLabelsBelongToTask(t *testing.T) {
	v := NewVocabulary()
	for _, task := range Tasks() {
		for _, id := range v.TaskLabels(task) {
			if v.Label(id).Task != task {
				t.Fatalf("label %d listed under %v but belongs to %v",
					id, task, v.Label(id).Task)
			}
		}
	}
}

func TestSemanticAttributes(t *testing.T) {
	v := NewVocabulary()
	pub, ok := v.ByName("place/pub")
	if !ok || !pub.Indoor {
		t.Fatalf("place/pub should exist and be indoor: %+v ok=%v", pub, ok)
	}
	mountain, ok := v.ByName("place/mountain")
	if !ok || mountain.Indoor {
		t.Fatalf("place/mountain should exist and be outdoor")
	}
	bike, ok := v.ByName("action/riding bike")
	if !ok || !bike.Sport {
		t.Fatalf("action/riding bike should be a sport action")
	}
	cook, ok := v.ByName("action/cooking")
	if !ok || cook.Sport {
		t.Fatalf("action/cooking should not be a sport action")
	}
	cat, ok := v.ByName("object/cat")
	if !ok || !cat.Animal {
		t.Fatalf("object/cat should be an animal object")
	}
	car, ok := v.ByName("object/car")
	if !ok || car.Animal {
		t.Fatalf("object/car should not be an animal object")
	}
	// Every dog breed counts as animal-related.
	for _, id := range v.TaskLabels(DogClassification) {
		if !v.Label(id).Animal {
			t.Fatalf("dog label %q not marked animal", v.Label(id).Name)
		}
	}
}

func TestSomeAnimalsAndSportsExist(t *testing.T) {
	v := NewVocabulary()
	animals, sports := 0, 0
	for _, id := range v.TaskLabels(ObjectDetection) {
		if v.Label(id).Animal {
			animals++
		}
	}
	for _, id := range v.TaskLabels(ActionClassification) {
		if v.Label(id).Sport {
			sports++
		}
	}
	if animals < 5 {
		t.Fatalf("only %d animal objects", animals)
	}
	if sports < 20 {
		t.Fatalf("only %d sport actions", sports)
	}
}

func TestDefaultProfitAndOverride(t *testing.T) {
	v := NewVocabulary()
	// Single-output tasks default to profit 1; keypoint tasks are
	// normalized down so their dozens of labels do not dominate.
	place, _ := v.ByName("place/pub")
	if place.Profit != 1 {
		t.Fatalf("place profit = %v, want 1", place.Profit)
	}
	kp := v.TaskLabels(FaceLandmark)[0]
	if p := v.Label(kp).Profit; p <= 0 || p >= 0.2 {
		t.Fatalf("face keypoint profit = %v, want small fraction", p)
	}
	// Typical per-task valuable output values are the same order of
	// magnitude: 70 face keypoints vs one place label.
	if tot := float64(FaceLandmark.LabelCount()) * v.Label(kp).Profit; tot < 1 || tot > 6 {
		t.Fatalf("face landmark task total %v not normalized", tot)
	}
}

func TestTaskString(t *testing.T) {
	if ObjectDetection.String() != "Object Detection" {
		t.Fatalf("unexpected task name %q", ObjectDetection.String())
	}
	if Task(99).String() == "" {
		t.Fatal("out-of-range task produced empty string")
	}
	if len(Tasks()) != NumTasks {
		t.Fatalf("Tasks() returned %d entries", len(Tasks()))
	}
}

func TestByNameMissing(t *testing.T) {
	v := NewVocabulary()
	if _, ok := v.ByName("no/such-label"); ok {
		t.Fatal("ByName returned ok for a missing label")
	}
}
