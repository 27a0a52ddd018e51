// Package synth generates the synthetic image datasets that stand in for
// the paper's real image corpora (MSCOCO 2017, Places365, MirFlickr25,
// Stanford40, PASCAL VOC 2012).
//
// Each "image" is a latent scene: a structured semantic ground truth
// (place, objects, people, faces, actions, dogs, hands) with the same
// kind of inter-concept correlation the paper's DRL agent exploits —
// e.g. people imply faces and poses, pubs imply cups and drinking, dogs
// imply breeds. The 30 simulated models in internal/zoo read this latent
// truth (with task-specific noise) to produce labels and confidences, so
// every downstream component (oracle, agents, schedulers) exercises
// exactly the code paths the paper's pipeline would.
package synth

import (
	"fmt"

	"ams/internal/labels"
	"ams/internal/tensor"
)

// Scene is the latent semantic ground truth of one synthetic image.
type Scene struct {
	ID     int
	Seed   uint64 // per-scene noise seed used by simulated model inference
	Place  int    // label ID of the true place
	Indoor bool

	Objects []int // label IDs of objects present (ObjectDetection task)

	Persons int   // number of people in the scene
	Faces   int   // number of clearly visible faces (<= Persons)
	Emotion int   // label ID of the dominant facial emotion, -1 if no face
	Gender  int   // label ID of the dominant gender, -1 if no face
	Action  int   // label ID of the dominant human action, -1 if none
	PoseKP  []int // label IDs of visible body keypoints
	HandKP  []int // label IDs of visible hand keypoints

	Dog int // label ID of the dog breed present, -1 if no dog
}

// HasPerson reports whether any person is present.
func (s *Scene) HasPerson() bool { return s.Persons > 0 }

// HasFace reports whether any visible face is present.
func (s *Scene) HasFace() bool { return s.Faces > 0 }

// HasDog reports whether a dog is present.
func (s *Scene) HasDog() bool { return s.Dog >= 0 }

// Profile parameterizes a dataset's content distribution. The five
// concrete profiles below mimic the qualitative differences between the
// paper's datasets.
type Profile struct {
	Name string

	PersonProb   float64 // probability a scene contains people
	MeanPersons  float64 // mean person count when present (geometric-ish)
	FaceProb     float64 // probability a person shows a usable face
	ActionProb   float64 // probability people perform a nameable action
	SportBias    float64 // probability an action is drawn from sports
	DogProb      float64 // probability a dog appears
	IndoorProb   float64 // probability the place is indoor
	MeanObjects  float64 // mean number of distinct non-person objects
	ObjectSpread int     // size of the object sub-vocabulary the profile favours
	HandProb     float64 // probability hands are clearly visible given a person
	PlaceSpread  int     // size of the place sub-vocabulary the profile favours
}

// The five dataset profiles. Stanford40 is action-centric; VOC2012 is
// object-centric with animals and vehicles; Places365 is scene-centric;
// MSCOCO is object+people rich; MirFlickr is mixed social photography.
func MSCOCO() Profile {
	return Profile{
		Name: "MSCOCO2017", PersonProb: 0.62, MeanPersons: 2.2, FaceProb: 0.68,
		ActionProb: 0.45, SportBias: 0.35, DogProb: 0.12, IndoorProb: 0.45,
		MeanObjects: 4.5, ObjectSpread: 80, HandProb: 0.35, PlaceSpread: 160,
	}
}

func Places365() Profile {
	return Profile{
		Name: "Places365", PersonProb: 0.30, MeanPersons: 1.4, FaceProb: 0.45,
		ActionProb: 0.22, SportBias: 0.25, DogProb: 0.05, IndoorProb: 0.52,
		MeanObjects: 2.8, ObjectSpread: 70, HandProb: 0.18, PlaceSpread: 365,
	}
}

func MirFlickr() Profile {
	return Profile{
		Name: "MirFlickr25", PersonProb: 0.55, MeanPersons: 1.8, FaceProb: 0.72,
		ActionProb: 0.35, SportBias: 0.25, DogProb: 0.10, IndoorProb: 0.40,
		MeanObjects: 3.4, ObjectSpread: 80, HandProb: 0.30, PlaceSpread: 240,
	}
}

func Stanford40() Profile {
	return Profile{
		Name: "Stanford40", PersonProb: 0.97, MeanPersons: 1.6, FaceProb: 0.75,
		ActionProb: 0.95, SportBias: 0.45, DogProb: 0.08, IndoorProb: 0.38,
		MeanObjects: 2.6, ObjectSpread: 60, HandProb: 0.55, PlaceSpread: 120,
	}
}

func VOC2012() Profile {
	return Profile{
		Name: "VOC2012", PersonProb: 0.45, MeanPersons: 1.5, FaceProb: 0.55,
		ActionProb: 0.25, SportBias: 0.30, DogProb: 0.18, IndoorProb: 0.35,
		MeanObjects: 3.8, ObjectSpread: 80, HandProb: 0.22, PlaceSpread: 200,
	}
}

// Profiles returns all five dataset profiles.
func Profiles() []Profile {
	return []Profile{MSCOCO(), Places365(), MirFlickr(), Stanford40(), VOC2012()}
}

// ProfileByName resolves a profile from its Name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("synth: unknown dataset profile %q", name)
}

// Generator produces scenes for a profile against a vocabulary.
type Generator struct {
	vocab   *labels.Vocabulary
	profile Profile
	rng     *tensor.RNG

	placeIDs   []int
	objectIDs  []int
	personObj  int // label ID of object/person
	actionIDs  []int
	sportIDs   []int
	nonSport   []int
	emotionIDs []int
	genderIDs  []int
	poseIDs    []int
	handIDs    []int
	dogIDs     []int
}

// NewGenerator returns a deterministic scene generator for the profile.
func NewGenerator(vocab *labels.Vocabulary, profile Profile, seed uint64) *Generator {
	g := &Generator{vocab: vocab, profile: profile, rng: tensor.NewRNG(seed)}
	g.placeIDs = clampSpread(vocab.TaskLabels(labels.PlaceClassification), profile.PlaceSpread)
	g.objectIDs = clampSpread(vocab.TaskLabels(labels.ObjectDetection), profile.ObjectSpread)
	if l, ok := vocab.ByName("object/person"); ok {
		g.personObj = l.ID
	} else {
		panic("synth: vocabulary lacks object/person")
	}
	for _, id := range vocab.TaskLabels(labels.ActionClassification) {
		g.actionIDs = append(g.actionIDs, id)
		if vocab.Label(id).Sport {
			g.sportIDs = append(g.sportIDs, id)
		} else {
			g.nonSport = append(g.nonSport, id)
		}
	}
	g.emotionIDs = vocab.TaskLabels(labels.EmotionClassification)
	g.genderIDs = vocab.TaskLabels(labels.GenderClassification)
	g.poseIDs = vocab.TaskLabels(labels.PoseEstimation)
	g.handIDs = vocab.TaskLabels(labels.HandLandmark)
	g.dogIDs = vocab.TaskLabels(labels.DogClassification)
	return g
}

func clampSpread(ids []int, spread int) []int {
	if spread <= 0 || spread >= len(ids) {
		return ids
	}
	return ids[:spread]
}

// Next generates the next scene.
func (g *Generator) Next() Scene {
	r := g.rng
	p := g.profile
	s := Scene{
		ID:      -1, // assigned by Dataset
		Seed:    r.Uint64(),
		Emotion: -1,
		Gender:  -1,
		Action:  -1,
		Dog:     -1,
	}

	// Place: pick from the profile's favoured sub-vocabulary, biased
	// toward/away from indoor scenes by IndoorProb.
	wantIndoor := r.Bool(p.IndoorProb)
	s.Place = g.pickPlace(wantIndoor)
	s.Indoor = g.vocab.Label(s.Place).Indoor

	// People and the person-conditioned concepts.
	if r.Bool(p.PersonProb) {
		s.Persons = 1 + geometric(r, p.MeanPersons)
		if r.Bool(p.FaceProb) {
			s.Faces = 1 + r.Intn(s.Persons)
			s.Emotion = g.emotionIDs[r.Intn(len(g.emotionIDs))]
			s.Gender = g.genderIDs[r.Intn(len(g.genderIDs))]
		}
		if r.Bool(p.ActionProb) {
			// Outdoor scenes and sporty profiles favour sport actions.
			sportP := p.SportBias
			if !s.Indoor {
				sportP += 0.2
			} else {
				sportP -= 0.1
			}
			if r.Bool(clamp01(sportP)) {
				s.Action = g.sportIDs[r.Intn(len(g.sportIDs))]
			} else {
				s.Action = g.nonSport[r.Intn(len(g.nonSport))]
			}
		}
		// Visible body keypoints: a contiguous-ish random subset.
		nKP := 5 + r.Intn(len(g.poseIDs)-4)
		perm := r.Perm(len(g.poseIDs))
		for _, i := range perm[:nKP] {
			s.PoseKP = append(s.PoseKP, g.poseIDs[i])
		}
		if r.Bool(p.HandProb) {
			nh := 6 + r.Intn(len(g.handIDs)-5)
			hperm := r.Perm(len(g.handIDs))
			for _, i := range hperm[:nh] {
				s.HandKP = append(s.HandKP, g.handIDs[i])
			}
		}
	}

	// Objects: person objects mirror the person count; others are drawn
	// with a place-conditioned bias (indoor scenes favour household items,
	// which sit late in the object vocabulary; outdoor favours vehicles
	// and animals, early in the vocabulary).
	if s.Persons > 0 {
		s.Objects = append(s.Objects, g.personObj)
	}
	nObj := geometric(r, p.MeanObjects)
	for i := 0; i < nObj; i++ {
		id := g.pickObject(s.Indoor)
		if id != g.personObj && !containsInt(s.Objects, id) {
			s.Objects = append(s.Objects, id)
		}
	}

	// Dogs: more likely when the object detector would see a dog; a dog
	// object is injected so that object detection and breed classification
	// correlate.
	dogP := p.DogProb
	if !s.Indoor {
		dogP *= 1.4
	}
	if r.Bool(clamp01(dogP)) {
		s.Dog = g.dogIDs[r.Intn(len(g.dogIDs))]
		if l, ok := g.vocab.ByName("object/dog"); ok && !containsInt(s.Objects, l.ID) {
			s.Objects = append(s.Objects, l.ID)
		}
	}

	return s
}

// pickPlace draws a place with the requested indoor-ness (falling back to
// any place after a bounded number of rejections).
func (g *Generator) pickPlace(indoor bool) int {
	for i := 0; i < 16; i++ {
		id := g.placeIDs[g.rng.Intn(len(g.placeIDs))]
		if g.vocab.Label(id).Indoor == indoor {
			return id
		}
	}
	return g.placeIDs[g.rng.Intn(len(g.placeIDs))]
}

// pickObject draws an object label biased by scene indoor-ness.
func (g *Generator) pickObject(indoor bool) int {
	n := len(g.objectIDs)
	// Household objects occupy the back half of the vocabulary; animals
	// and vehicles the front. Beta-like skew via averaging two uniforms.
	u := (g.rng.Float64() + g.rng.Float64()) / 2
	var idx int
	if indoor {
		idx = int((0.5 + float64(u/2)) * float64(n-1)) // skew to the back half
	} else {
		idx = int((u / 2 * 1.6) * float64(n-1)) // skew to the front
	}
	if idx >= n {
		idx = n - 1
	}
	return g.objectIDs[idx]
}

// geometric samples a non-negative integer with the given mean.
func geometric(r *tensor.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	n := 0
	for !r.Bool(p) && n < 64 {
		n++
	}
	return n
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
