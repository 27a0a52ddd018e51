package ams

import (
	"fmt"
	"slices"
	"sync"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/tensor"
)

// Item is one unit of labeling work: either a reference to one of the
// System's built-in held-out images (TestItem — the historical surface,
// with precomputed ground truth and therefore a known Recall) or an
// externally ingested scene (ComposeItem, GenerateItems) the oracle has
// never seen, executed on demand, model by model, as the schedule asks.
//
// An external item carries its own memoized model outputs, so labeling
// the same Item on several surfaces (Label, a batch, a server) never
// re-executes a model. The zero Item is invalid; every labeling surface
// rejects it.
type Item struct {
	id    string
	image int                  // test-split index when ext == nil
	ext   *oracle.ExternalItem // externally ingested content
	valid bool
}

// WithID returns a copy of the item carrying the identifier.
func (it Item) WithID(id string) Item {
	it.id = id
	return it
}

// TestItem returns the item referring to held-out image i — the built-in
// source. Its results report Recall against the precomputed ground
// truth. The index is validated when the item is labeled.
func (s *System) TestItem(i int) Item {
	return Item{image: i, valid: true}
}

// SceneSpec describes an external item's content by label names — the
// front door for data the library did not generate. Every named label
// must exist in the System's vocabulary (for example "object/dog",
// "place/beach", "action/running"; see Vocabulary task prefixes).
// Unset concept fields mean "absent"; person-conditioned detail
// (keypoints) is derived from Seed.
type SceneSpec struct {
	ID string // optional identifier echoed in results

	Place   string   // place label name (defaults to the first place)
	Objects []string // object label names present in the scene
	Persons int      // number of people
	Faces   int      // visible faces (capped at Persons)
	Emotion string   // dominant facial emotion (requires a face)
	Gender  string   // dominant gender (requires a face)
	Action  string   // dominant human action (requires a person)
	Dog     string   // dog breed label name

	Seed uint64 // noise seed: model confidences, visible keypoints
}

// ComposeItem builds an external item from a content description,
// validating every label name against the vocabulary.
func (s *System) ComposeItem(spec SceneSpec) (Item, error) {
	v := s.Vocabulary
	resolve := func(field, name string, task labels.Task) (int, error) {
		l, ok := v.ByName(name)
		if !ok {
			return 0, fmt.Errorf("ams: %s: unknown label %q", field, name)
		}
		if l.Task != task {
			return 0, fmt.Errorf("ams: %s: label %q belongs to task %s, want %s",
				field, name, l.Task, task)
		}
		return l.ID, nil
	}

	rng := tensor.NewRNG(spec.Seed ^ 0x243f6a8885a308d3)
	scene := synth.Scene{
		ID:      -1,
		Seed:    rng.Uint64(),
		Emotion: -1,
		Gender:  -1,
		Action:  -1,
		Dog:     -1,
	}

	// Place (defaulting to the vocabulary's first place label).
	placeIDs := v.TaskLabels(labels.PlaceClassification)
	scene.Place = placeIDs[0]
	if spec.Place != "" {
		id, err := resolve("Place", spec.Place, labels.PlaceClassification)
		if err != nil {
			return Item{}, err
		}
		scene.Place = id
	}
	scene.Indoor = v.Label(scene.Place).Indoor

	for _, name := range spec.Objects {
		id, err := resolve("Objects", name, labels.ObjectDetection)
		if err != nil {
			return Item{}, err
		}
		scene.Objects = append(scene.Objects, id)
	}

	if spec.Persons < 0 || spec.Faces < 0 {
		return Item{}, fmt.Errorf("ams: negative person/face count")
	}
	scene.Persons = spec.Persons
	scene.Faces = spec.Faces
	if scene.Faces > scene.Persons {
		scene.Faces = scene.Persons
	}
	if scene.Persons > 0 {
		// People imply the person object and visible body keypoints, the
		// correlations the generator (and so the trained agent) relies on.
		if l, ok := v.ByName("object/person"); ok && !slices.Contains(scene.Objects, l.ID) {
			scene.Objects = append(scene.Objects, l.ID)
		}
		poseIDs := v.TaskLabels(labels.PoseEstimation)
		nKP := 5 + rng.Intn(len(poseIDs)-4)
		for _, i := range rng.Perm(len(poseIDs))[:nKP] {
			scene.PoseKP = append(scene.PoseKP, poseIDs[i])
		}
		handIDs := v.TaskLabels(labels.HandLandmark)
		nh := 6 + rng.Intn(len(handIDs)-5)
		for _, i := range rng.Perm(len(handIDs))[:nh] {
			scene.HandKP = append(scene.HandKP, handIDs[i])
		}
	}
	if spec.Emotion != "" {
		if scene.Faces == 0 {
			return Item{}, fmt.Errorf("ams: Emotion requires a visible face")
		}
		id, err := resolve("Emotion", spec.Emotion, labels.EmotionClassification)
		if err != nil {
			return Item{}, err
		}
		scene.Emotion = id
	}
	if spec.Gender != "" {
		if scene.Faces == 0 {
			return Item{}, fmt.Errorf("ams: Gender requires a visible face")
		}
		id, err := resolve("Gender", spec.Gender, labels.GenderClassification)
		if err != nil {
			return Item{}, err
		}
		scene.Gender = id
	}
	if spec.Action != "" {
		if scene.Persons == 0 {
			return Item{}, fmt.Errorf("ams: Action requires a person")
		}
		id, err := resolve("Action", spec.Action, labels.ActionClassification)
		if err != nil {
			return Item{}, err
		}
		scene.Action = id
	}
	if spec.Dog != "" {
		id, err := resolve("Dog", spec.Dog, labels.DogClassification)
		if err != nil {
			return Item{}, err
		}
		scene.Dog = id
		if l, ok := v.ByName("object/dog"); ok && !slices.Contains(scene.Objects, l.ID) {
			scene.Objects = append(scene.Objects, l.ID)
		}
	}

	return Item{
		id:    spec.ID,
		image: -1,
		ext:   oracle.NewExternalItem(s.Zoo, scene),
		valid: true,
	}, nil
}

// GenerateItems draws n fresh scenes from the System's dataset profile —
// content statistically like the training distribution but never seen by
// the oracle, the "externally arriving traffic" case. Items are tagged
// "gen/<seed>/<index>". A non-positive n yields no items.
func (s *System) GenerateItems(n int, seed uint64) []Item {
	if n <= 0 {
		return []Item{}
	}
	g := synth.NewGenerator(s.Vocabulary, s.Dataset.Profile, seed^0x452821e638d01377)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			id:    fmt.Sprintf("gen/%d/%d", seed, i),
			image: -1,
			ext:   oracle.NewExternalItem(s.Zoo, g.Next()),
			valid: true,
		}
	}
	return items
}

// SceneSource yields a stream of items to label — a camera feed, an
// upload queue, an album. Next returns ok=false when the stream ends.
// Sources are pulled from a single goroutine by the consuming surface.
type SceneSource interface {
	Next() (Item, bool)
}

// sliceSource yields a fixed item list once.
type sliceSource struct {
	items []Item
	pos   int
}

func (s *sliceSource) Next() (Item, bool) {
	if s.pos >= len(s.items) {
		return Item{}, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// ItemSource returns a SceneSource yielding the given items in order,
// once.
func ItemSource(items ...Item) SceneSource {
	return &sliceSource{items: items}
}

// testSplitSource cycles the held-out split forever.
type testSplitSource struct {
	sys *System
	mu  sync.Mutex
	pos int
}

func (t *testSplitSource) Next() (Item, bool) {
	t.mu.Lock()
	i := t.pos
	t.pos = (t.pos + 1) % t.sys.NumTestImages()
	t.mu.Unlock()
	return t.sys.TestItem(i), true
}

// TestSplitSource returns the built-in source: the held-out images,
// cycled indefinitely in index order — what Server.Replay reads when
// given no source.
func (s *System) TestSplitSource() SceneSource {
	return &testSplitSource{sys: s}
}

// checkItem is the one item validation every surface shares: it returns
// the item's external payload (nil for a valid test-split reference) or
// an error for the zero Item and out-of-range indices.
func (s *System) checkItem(item Item) (*oracle.ExternalItem, error) {
	switch {
	case item.ext != nil:
		return item.ext, nil
	case item.valid:
		if err := s.checkImage(item.image); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("ams: zero Item; use TestItem, ComposeItem or GenerateItems")
	}
}

// resolveItem maps an item onto the executor/index pair the scheduling
// layers run on: the precomputed test store for built-in items, the
// item's own one-item executor for external ones.
func (s *System) resolveItem(item Item) (oracle.Executor, int, error) {
	ext, err := s.checkItem(item)
	if err != nil {
		return nil, 0, err
	}
	if ext != nil {
		return ext.Executor(), 0, nil
	}
	return s.testStore, item.image, nil
}
