// Package labels defines the label vocabulary of the AMS reproduction:
// ten visual-analysis tasks supporting 1104 labels in total, mirroring
// Table I of the paper. Labels carry a user-assignable profit (default 1)
// used by the evaluation function f(S,d) = sum of profits of emitted
// labels.
package labels

import "fmt"

// Task identifies one of the ten visual-analysis tasks.
type Task int

// The ten tasks of Table I.
const (
	ObjectDetection Task = iota
	PlaceClassification
	FaceDetection
	FaceLandmark
	PoseEstimation
	EmotionClassification
	GenderClassification
	ActionClassification
	HandLandmark
	DogClassification
	numTasks
)

// NumTasks is the number of distinct tasks.
const NumTasks = int(numTasks)

// taskNames in Table I order.
var taskNames = [...]string{
	"Object Detection",
	"Place Classification",
	"Face Detection",
	"Face Landmark Localization",
	"Pose Estimation",
	"Emotion Classification",
	"Gender Classification",
	"Action Classification",
	"Hand Landmark Localization",
	"Dog Classification",
}

// labelCounts per task per Table I; they sum to 1104.
var labelCounts = [...]int{80, 365, 1, 70, 17, 7, 2, 400, 42, 120}

// String returns the task's display name.
func (t Task) String() string {
	if t < 0 || int(t) >= NumTasks {
		return fmt.Sprintf("Task(%d)", int(t))
	}
	return taskNames[t]
}

// LabelCount returns the number of labels the task supports.
func (t Task) LabelCount() int { return labelCounts[t] }

// Tasks lists all tasks in Table I order.
func Tasks() []Task {
	ts := make([]Task, NumTasks)
	for i := range ts {
		ts[i] = Task(i)
	}
	return ts
}

// Label is one entry of the vocabulary.
type Label struct {
	ID     int    // dense index in [0, Total)
	Name   string // unique human-readable name
	Task   Task   // owning task
	Profit float64

	// Semantic attributes consumed by the synthetic world and the
	// handcrafted-rule engine.
	Indoor bool // meaningful for place labels
	Sport  bool // meaningful for action labels
	Animal bool // meaningful for object labels
}

// Vocabulary is the immutable registry of all labels.
type Vocabulary struct {
	labels []Label
	byName map[string]int
	byTask [NumTasks][]int // label IDs per task
}

// Total is the size of the full vocabulary (|L(M)| in the paper).
const Total = 1104

// objectNames are 80 everyday object categories (detection vocabulary).
var objectNames = []string{
	"person", "bicycle", "car", "motorcycle", "airplane", "bus", "train",
	"truck", "boat", "traffic light", "fire hydrant", "stop sign",
	"parking meter", "bench", "bird", "cat", "dog", "horse", "sheep",
	"cow", "elephant", "bear", "zebra", "giraffe", "backpack", "umbrella",
	"handbag", "tie", "suitcase", "frisbee", "skis", "snowboard",
	"sports ball", "kite", "baseball bat", "baseball glove", "skateboard",
	"surfboard", "tennis racket", "bottle", "wine glass", "cup", "fork",
	"knife", "spoon", "bowl", "banana", "apple", "sandwich", "orange",
	"broccoli", "carrot", "hot dog", "pizza", "donut", "cake", "chair",
	"couch", "potted plant", "bed", "dining table", "toilet", "tv monitor",
	"laptop", "mouse", "remote", "keyboard", "cell phone", "microwave",
	"oven", "toaster", "sink", "refrigerator", "book", "clock", "vase",
	"scissors", "teddy bear", "hair drier", "toothbrush",
}

// animalObjects marks which object labels are animals (used by the
// "Animal-Object Detection" handcrafted rule).
var animalObjects = map[string]bool{
	"bird": true, "cat": true, "dog": true, "horse": true, "sheep": true,
	"cow": true, "elephant": true, "bear": true, "zebra": true,
	"giraffe": true, "teddy bear": false,
}

// curatedPlaces seeds the place vocabulary with names used by the paper's
// figures and rules; the remainder is generated.
var curatedPlaces = []struct {
	name   string
	indoor bool
}{
	{"pub", true}, {"beer hall", true}, {"bathroom", true}, {"lobby", true},
	{"mall", true}, {"kitchen", true}, {"bedroom", true}, {"office", true},
	{"classroom", true}, {"library", true}, {"gym", true}, {"museum", true},
	{"restaurant", true}, {"supermarket", true}, {"church indoor", true},
	{"stadium indoor", true},
	{"mountain", false}, {"beach", false}, {"forest", false},
	{"lawn", false}, {"street", false}, {"park", false}, {"harbor", false},
	{"desert", false}, {"undersea", false}, {"ski slope", false},
	{"playground", false}, {"stadium outdoor", false}, {"farm", false},
	{"garden", false}, {"bridge", false}, {"campsite", false},
}

// curatedActions seeds the action vocabulary; sports actions matter for
// the "Sport-Action Classification" handcrafted rule.
var curatedActions = []struct {
	name  string
	sport bool
}{
	{"drinking beer", false}, {"riding bike", true}, {"making up", false},
	{"falling down", false}, {"reading book", false}, {"playing guitar", false},
	{"cooking", false}, {"taking photo", false}, {"walking dog", false},
	{"phoning", false}, {"writing", false}, {"applauding", false},
	{"playing soccer", true}, {"playing basketball", true},
	{"playing tennis", true}, {"swimming", true}, {"surfing", true},
	{"skiing", true}, {"skateboarding", true}, {"rowing boat", true},
	{"climbing", true}, {"running", true}, {"jumping", true},
	{"riding horse", true}, {"fishing", false}, {"gardening", false},
	{"brushing teeth", false}, {"blowing candles", false},
	{"shaking hands", false}, {"hugging", false},
}

// curatedBreeds seeds the fine-grained dog vocabulary.
var curatedBreeds = []string{
	"akita", "beagle", "border collie", "boxer", "chihuahua", "corgi",
	"dalmatian", "golden retriever", "husky", "labrador", "pomeranian",
	"poodle", "pug", "rottweiler", "samoyed", "shiba inu",
}

// poseKeypoints are the 17 standard body keypoints.
var poseKeypoints = []string{
	"nose", "left eye", "right eye", "left ear", "right ear",
	"left shoulder", "right shoulder", "left elbow", "right elbow",
	"left wrist", "right wrist", "left hip", "right hip", "left knee",
	"right knee", "left ankle", "right ankle",
}

// emotionNames are the 7 basic emotion classes.
var emotionNames = []string{
	"angry", "disgust", "fear", "happy", "sad", "surprise", "neutral",
}

var genderNames = []string{"female", "male"}

// defaultProfit returns the default per-label profit of a task. Keypoint
// tasks emit dozens of labels per detection (a face landmark model emits
// up to 70 keypoints at once), so a flat profit of 1 would let them swamp
// the evaluation function. The defaults normalize each task's typical
// valuable output to the same order of magnitude, which is the explicit
// purpose of the paper's user-assigned profits p_i.
func defaultProfit(t Task) float64 {
	switch t {
	case FaceLandmark:
		return 0.05
	case HandLandmark:
		return 0.08
	case PoseEstimation:
		return 0.2
	case ObjectDetection:
		return 0.6
	default:
		return 1
	}
}

// NewVocabulary constructs the full 1104-label vocabulary. The layout is
// deterministic: labels are numbered task by task in Table I order.
func NewVocabulary() *Vocabulary {
	v := &Vocabulary{byName: make(map[string]int, Total)}
	add := func(task Task, name string, indoor, sport, animal bool) {
		id := len(v.labels)
		v.labels = append(v.labels, Label{
			ID: id, Name: name, Task: task, Profit: defaultProfit(task),
			Indoor: indoor, Sport: sport, Animal: animal,
		})
		if _, dup := v.byName[name]; dup {
			panic(fmt.Sprintf("labels: duplicate label name %q", name))
		}
		v.byName[name] = id
		v.byTask[task] = append(v.byTask[task], id)
	}

	// Object Detection: 80 labels.
	for _, n := range objectNames {
		add(ObjectDetection, "object/"+n, false, false, animalObjects[n])
	}
	// Place Classification: 365 labels (curated prefix + generated tail).
	for _, p := range curatedPlaces {
		add(PlaceClassification, "place/"+p.name, p.indoor, false, false)
	}
	for i := len(curatedPlaces); i < labelCounts[PlaceClassification]; i++ {
		indoor := i%2 == 0
		add(PlaceClassification, fmt.Sprintf("place/scene-%03d", i), indoor, false, false)
	}
	// Face Detection: 1 label.
	add(FaceDetection, "face/face", false, false, false)
	// Face Landmark Localization: 70 keypoints.
	for i := 0; i < labelCounts[FaceLandmark]; i++ {
		add(FaceLandmark, fmt.Sprintf("facekp/point-%02d", i), false, false, false)
	}
	// Pose Estimation: 17 body keypoints.
	for _, n := range poseKeypoints {
		add(PoseEstimation, "pose/"+n, false, false, false)
	}
	// Emotion Classification: 7 labels.
	for _, n := range emotionNames {
		add(EmotionClassification, "emotion/"+n, false, false, false)
	}
	// Gender Classification: 2 labels.
	for _, n := range genderNames {
		add(GenderClassification, "gender/"+n, false, false, false)
	}
	// Action Classification: 400 labels.
	for _, a := range curatedActions {
		add(ActionClassification, "action/"+a.name, false, a.sport, false)
	}
	for i := len(curatedActions); i < labelCounts[ActionClassification]; i++ {
		add(ActionClassification, fmt.Sprintf("action/activity-%03d", i), false, i%5 == 0, false)
	}
	// Hand Landmark Localization: 42 keypoints (21 per hand).
	for i := 0; i < labelCounts[HandLandmark]; i++ {
		add(HandLandmark, fmt.Sprintf("handkp/point-%02d", i), false, false, false)
	}
	// Dog Classification: 120 breeds.
	for _, b := range curatedBreeds {
		add(DogClassification, "dog/"+b, false, false, true)
	}
	for i := len(curatedBreeds); i < labelCounts[DogClassification]; i++ {
		add(DogClassification, fmt.Sprintf("dog/breed-%03d", i), false, false, true)
	}

	if len(v.labels) != Total {
		panic(fmt.Sprintf("labels: vocabulary has %d labels, want %d", len(v.labels), Total))
	}
	return v
}

// Len returns the vocabulary size.
func (v *Vocabulary) Len() int { return len(v.labels) }

// Label returns the label with the given dense ID.
func (v *Vocabulary) Label(id int) Label { return v.labels[id] }

// ByName looks a label up by its unique name.
func (v *Vocabulary) ByName(name string) (Label, bool) {
	id, ok := v.byName[name]
	if !ok {
		return Label{}, false
	}
	return v.labels[id], true
}

// TaskLabels returns the IDs of every label the task supports. The
// returned slice must not be modified.
func (v *Vocabulary) TaskLabels(t Task) []int { return v.byTask[t] }
