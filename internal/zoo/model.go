// Package zoo provides the 30 simulated deep-learning models the AMS
// framework schedules (Table I of the paper: 10 visual tasks, 3 deployed
// models each, 1104 supported labels in total).
//
// A model here is a black box characterized exactly the way the paper's
// scheduler sees one: a supported label set, a mean execution time
// (m.time), a peak GPU memory footprint (m.mem), and a content-dependent
// output — labels with confidences — computed from a scene's latent ground
// truth with model-specific recall/precision noise. Inference is a pure
// function of (scene seed, model identity), so repeated executions of the
// same model on the same image agree, which the oracle relies on.
package zoo

import (
	"fmt"

	"ams/internal/labels"
	"ams/internal/synth"
	"ams/internal/tensor"
)

// LabelConf is one output label with its confidence in [0,1].
type LabelConf struct {
	ID   int
	Conf float64
}

// Output is the result of executing one model on one image.
type Output struct {
	Labels []LabelConf
}

// Value returns the sum of confidences of labels at or above the
// confidence threshold — the paper's notion of valuable output when label
// profits equal confidences.
func (o Output) Value(threshold float64) float64 {
	var v float64
	for _, lc := range o.Labels {
		if lc.Conf >= threshold {
			v += lc.Conf
		}
	}
	return v
}

// Model describes one deployed deep-learning model.
type Model struct {
	ID        int
	Name      string
	Task      labels.Task
	Supported []int // label IDs this model can emit

	TimeMS float64 // mean execution time in milliseconds (m.time)
	MemMB  float64 // peak GPU memory in megabytes (m.mem)

	// Batched-execution cost split: one batched run serving n requests of
	// this model costs BatchLaunchMS + n*BatchMarginalMS of GPU time (the
	// fixed launch overhead — weight loading, kernel setup — paid once,
	// plus a small per-item marginal). The two always sum to TimeMS, so a
	// batch of one costs exactly the nominal serial execution and the
	// serving layer's batch-size-1 path stays identical to the unbatched
	// one. Derived in NewZoo.
	BatchLaunchMS   float64
	BatchMarginalMS float64

	// Quality knobs for the simulated inference.
	Recall   float64 // probability a present, supported concept is emitted
	ConfMean float64 // mean confidence of a true positive
	ConfStd  float64 // stddev of true-positive confidence
	LowConf  float64 // probability a detection surfaces only at low confidence
	FPRate   float64 // expected spurious low-confidence labels per image

	salt uint64 // mixed into the scene seed for deterministic noise
}

// Zoo is the registry of all deployed models.
type Zoo struct {
	Vocab  *labels.Vocabulary
	Models []*Model
	byName map[string]*Model
}

// ByName resolves a model by name.
func (z *Zoo) ByName(name string) (*Model, bool) {
	m, ok := z.byName[name]
	return m, ok
}

// TotalTimeMS returns the summed mean execution time of all models — the
// per-image cost of the paper's "no policy" (≈ 5.16 s).
func (z *Zoo) TotalTimeMS() float64 {
	var t float64
	for _, m := range z.Models {
		t += m.TimeMS
	}
	return t
}

// ModelsForTask returns the models deployed for one task.
func (z *Zoo) ModelsForTask(t labels.Task) []*Model {
	var ms []*Model
	for _, m := range z.Models {
		if m.Task == t {
			ms = append(ms, m)
		}
	}
	return ms
}

// SupportingModels returns up to four model IDs ranked by how much of the
// given per-label value mass each model's supported set covers — the
// "which models would labeling this item run" signal a shard router
// uses for affinity placement. weights is indexed by label ID and must
// cover every label a model supports (labels.Total entries). Ties break
// toward the lower model ID, so the ranking is deterministic; models
// covering none of the labels are omitted. The result is the one
// allocation.
func (z *Zoo) SupportingModels(weights []float64) []int {
	const k = 4
	var ids []int
	var scoreBuf [k]float64
	scores := scoreBuf[:0]
	for _, m := range z.Models {
		score := 0.0
		for _, l := range m.Supported {
			score += weights[l]
		}
		if !(score > 0) {
			continue
		}
		// Insertion into the ranked top k: higher score first, then
		// lower ID.
		at := len(ids)
		for at > 0 && (score > scores[at-1] || score == scores[at-1] && m.ID < ids[at-1]) {
			at--
		}
		if at == k {
			continue
		}
		if ids == nil {
			ids = make([]int, 0, k)
		}
		if len(ids) < k {
			ids = append(ids, 0)
			scores = append(scores, 0)
		}
		copy(ids[at+1:], ids[at:])
		copy(scores[at+1:], scores[at:])
		ids[at], scores[at] = m.ID, score
	}
	return ids
}

// spec is the static description of one deployed model.
type spec struct {
	name    string
	task    labels.Task
	timeMS  float64
	memMB   float64
	recall  float64
	conf    float64
	confStd float64
	lowConf float64
	fpRate  float64
	subset  string // "", "animal", "sport": restricted label vocabulary
}

// registrySpecs lists the 30 deployed models: three per task, spanning a
// fast/cheap to slow/accurate spectrum. Mean times are calibrated so the
// total sits near the paper's 5.16 s per image; memories span the paper's
// 500–8000 MB range (Table III).
var registrySpecs = []spec{
	// Object Detection (80 labels).
	{name: "objdet-fast", task: labels.ObjectDetection, timeMS: 90, memMB: 1200,
		recall: 0.80, conf: 0.82, confStd: 0.10, lowConf: 0.18, fpRate: 0.5},
	{name: "objdet-accurate", task: labels.ObjectDetection, timeMS: 380, memMB: 5000,
		recall: 0.95, conf: 0.90, confStd: 0.06, lowConf: 0.06, fpRate: 0.2},
	{name: "objdet-animal", task: labels.ObjectDetection, timeMS: 140, memMB: 1800,
		recall: 0.92, conf: 0.88, confStd: 0.07, lowConf: 0.08, fpRate: 0.1, subset: "animal"},
	// Place Classification (365 labels).
	{name: "placecls-fast", task: labels.PlaceClassification, timeMS: 60, memMB: 700,
		recall: 0.85, conf: 0.78, confStd: 0.12, lowConf: 0.20, fpRate: 0.8},
	{name: "placecls-resnet", task: labels.PlaceClassification, timeMS: 120, memMB: 1500,
		recall: 0.93, conf: 0.86, confStd: 0.08, lowConf: 0.10, fpRate: 0.6},
	{name: "placecls-wide", task: labels.PlaceClassification, timeMS: 210, memMB: 2600,
		recall: 0.97, conf: 0.90, confStd: 0.06, lowConf: 0.05, fpRate: 0.4},
	// Face Detection (1 label).
	{name: "facedet-blaze", task: labels.FaceDetection, timeMS: 50, memMB: 500,
		recall: 0.85, conf: 0.84, confStd: 0.09, lowConf: 0.15, fpRate: 0.05},
	{name: "facedet-mtcnn", task: labels.FaceDetection, timeMS: 110, memMB: 900,
		recall: 0.94, conf: 0.90, confStd: 0.06, lowConf: 0.07, fpRate: 0.04},
	{name: "facedet-dlib", task: labels.FaceDetection, timeMS: 80, memMB: 650,
		recall: 0.90, conf: 0.87, confStd: 0.08, lowConf: 0.10, fpRate: 0.04},
	// Face Landmark Localization (70 labels).
	{name: "facelmk-2dfan", task: labels.FaceLandmark, timeMS: 300, memMB: 3500,
		recall: 0.95, conf: 0.88, confStd: 0.07, lowConf: 0.05, fpRate: 0.0},
	{name: "facelmk-small", task: labels.FaceLandmark, timeMS: 130, memMB: 1100,
		recall: 0.85, conf: 0.80, confStd: 0.10, lowConf: 0.12, fpRate: 0.0},
	{name: "facelmk-openface", task: labels.FaceLandmark, timeMS: 180, memMB: 1600,
		recall: 0.90, conf: 0.84, confStd: 0.08, lowConf: 0.08, fpRate: 0.0},
	// Pose Estimation (17 labels).
	{name: "pose-openpose", task: labels.PoseEstimation, timeMS: 400, memMB: 8000,
		recall: 0.96, conf: 0.90, confStd: 0.06, lowConf: 0.05, fpRate: 0.1},
	{name: "pose-flow", task: labels.PoseEstimation, timeMS: 280, memMB: 5200,
		recall: 0.92, conf: 0.86, confStd: 0.08, lowConf: 0.08, fpRate: 0.1},
	{name: "pose-lite", task: labels.PoseEstimation, timeMS: 150, memMB: 2400,
		recall: 0.84, conf: 0.80, confStd: 0.10, lowConf: 0.15, fpRate: 0.15},
	// Emotion Classification (7 labels).
	{name: "emotion-pylearn", task: labels.EmotionClassification, timeMS: 100, memMB: 800,
		recall: 0.90, conf: 0.82, confStd: 0.10, lowConf: 0.12, fpRate: 0.1},
	{name: "emotion-fast", task: labels.EmotionClassification, timeMS: 55, memMB: 550,
		recall: 0.82, conf: 0.76, confStd: 0.12, lowConf: 0.20, fpRate: 0.15},
	{name: "emotion-deep", task: labels.EmotionClassification, timeMS: 70, memMB: 950,
		recall: 0.93, conf: 0.86, confStd: 0.08, lowConf: 0.08, fpRate: 0.08},
	// Gender Classification (2 labels).
	{name: "gender-vgg", task: labels.GenderClassification, timeMS: 85, memMB: 1300,
		recall: 0.94, conf: 0.88, confStd: 0.07, lowConf: 0.06, fpRate: 0.05},
	{name: "gender-fast", task: labels.GenderClassification, timeMS: 50, memMB: 520,
		recall: 0.86, conf: 0.80, confStd: 0.10, lowConf: 0.14, fpRate: 0.08},
	{name: "gender-mid", task: labels.GenderClassification, timeMS: 65, memMB: 780,
		recall: 0.90, conf: 0.84, confStd: 0.08, lowConf: 0.10, fpRate: 0.06},
	// Action Classification (400 labels).
	{name: "action-i3d", task: labels.ActionClassification, timeMS: 380, memMB: 6000,
		recall: 0.94, conf: 0.88, confStd: 0.07, lowConf: 0.07, fpRate: 0.4},
	{name: "action-tsn", task: labels.ActionClassification, timeMS: 280, memMB: 4200,
		recall: 0.89, conf: 0.83, confStd: 0.09, lowConf: 0.12, fpRate: 0.5},
	{name: "action-sport", task: labels.ActionClassification, timeMS: 160, memMB: 2200,
		recall: 0.93, conf: 0.87, confStd: 0.07, lowConf: 0.08, fpRate: 0.2, subset: "sport"},
	// Hand Landmark Localization (42 labels).
	{name: "handlmk-mvb", task: labels.HandLandmark, timeMS: 340, memMB: 4000,
		recall: 0.93, conf: 0.86, confStd: 0.08, lowConf: 0.08, fpRate: 0.0},
	{name: "handlmk-mid", task: labels.HandLandmark, timeMS: 200, memMB: 2500,
		recall: 0.88, conf: 0.82, confStd: 0.09, lowConf: 0.12, fpRate: 0.0},
	{name: "handlmk-lite", task: labels.HandLandmark, timeMS: 120, memMB: 1300,
		recall: 0.80, conf: 0.78, confStd: 0.11, lowConf: 0.18, fpRate: 0.0},
	// Dog Classification (120 labels).
	{name: "dogcls-finegrained", task: labels.DogClassification, timeMS: 260, memMB: 3200,
		recall: 0.95, conf: 0.90, confStd: 0.06, lowConf: 0.05, fpRate: 0.05},
	{name: "dogcls-mid", task: labels.DogClassification, timeMS: 150, memMB: 1900,
		recall: 0.89, conf: 0.84, confStd: 0.09, lowConf: 0.10, fpRate: 0.08},
	{name: "dogcls-fast", task: labels.DogClassification, timeMS: 90, memMB: 1000,
		recall: 0.82, conf: 0.78, confStd: 0.11, lowConf: 0.16, fpRate: 0.1},
}

// NumModels is the number of deployed models (|M| in the paper).
const NumModels = 30

// batchMarginalFrac is the fraction of a model's mean execution time
// attributed to per-item work when executions are batched; the rest is
// the fixed launch overhead shared by the whole batch. 0.3 reflects the
// usual GPU serving shape — most of a single inference's latency is
// weight movement and kernel launch, which batching amortizes.
const batchMarginalFrac = 0.3

// BatchCostMS returns the simulated GPU time of one batched execution
// serving n requests: sub-linear in n, and exactly TimeMS at n = 1.
func (m *Model) BatchCostMS(n int) float64 {
	if n <= 0 {
		return 0
	}
	return m.BatchLaunchMS + float64(float64(n)*m.BatchMarginalMS)
}

// NewZoo builds the 30-model registry over the vocabulary.
func NewZoo(vocab *labels.Vocabulary) *Zoo {
	if len(registrySpecs) != NumModels {
		panic(fmt.Sprintf("zoo: registry has %d specs, want %d", len(registrySpecs), NumModels))
	}
	z := &Zoo{Vocab: vocab, byName: make(map[string]*Model, NumModels)}
	for i, sp := range registrySpecs {
		m := &Model{
			ID:       i,
			Name:     sp.name,
			Task:     sp.task,
			TimeMS:   sp.timeMS,
			MemMB:    sp.memMB,
			Recall:   sp.recall,
			ConfMean: sp.conf,
			ConfStd:  sp.confStd,
			LowConf:  sp.lowConf,
			FPRate:   sp.fpRate,
			salt:     0x9e3779b97f4a7c15 * uint64(i+1),
		}
		// Subtraction (not a second multiply) keeps the n=1 batch cost
		// bit-identical to TimeMS.
		m.BatchMarginalMS = float64(sp.timeMS * batchMarginalFrac)
		m.BatchLaunchMS = sp.timeMS - m.BatchMarginalMS
		all := vocab.TaskLabels(sp.task)
		switch sp.subset {
		case "animal":
			for _, id := range all {
				if vocab.Label(id).Animal {
					m.Supported = append(m.Supported, id)
				}
			}
		case "sport":
			for _, id := range all {
				if vocab.Label(id).Sport {
					m.Supported = append(m.Supported, id)
				}
			}
		default:
			m.Supported = append([]int(nil), all...)
		}
		if len(m.Supported) == 0 {
			panic(fmt.Sprintf("zoo: model %s supports no labels", sp.name))
		}
		z.Models = append(z.Models, m)
		z.byName[m.Name] = m
	}
	return z
}

// SupportsLabel reports whether the model can emit the label.
func (m *Model) SupportsLabel(id int) bool {
	for _, s := range m.Supported {
		if s == id {
			return true
		}
	}
	return false
}

// rng returns the deterministic noise source for this (model, scene) pair.
func (m *Model) rng(s *synth.Scene) *tensor.RNG {
	return tensor.NewRNG(s.Seed ^ m.salt)
}
