package experiments

import (
	"fmt"
	"strings"

	"ams/internal/zoo"
)

// Fig1Cell classifies one model execution on one image, as in the paper's
// motivation figure: useful (valuable labels), low-confidence-only
// output, or nothing at all.
type Fig1Cell int

// Cell kinds.
const (
	CellNoOutput Fig1Cell = iota
	CellLowConf
	CellUseful
)

// String renders a cell marker.
func (c Fig1Cell) String() string {
	switch c {
	case CellUseful:
		return "useful"
	case CellLowConf:
		return "low"
	default:
		return "-"
	}
}

// Fig1Result is the motivation analysis: a matrix of model executions on
// sample images plus corpus-level waste accounting.
type Fig1Result struct {
	Models []string
	Images []int
	Cells  [][]Fig1Cell // [model][image]

	// Corpus-wide execution accounting over the full dataset.
	TotalExecutions  int
	UsefulExecutions int
	WastedFraction   float64
}

// Fig1 reproduces the paper's Fig. 1 narrative on MirFlickr: a handful of
// sample images crossed with a handful of diverse models, plus the
// fraction of all-model executions that produce nothing valuable ("16/30
// model executions didn't generate anything useful").
func (l *Lab) Fig1() Fig1Result {
	st := l.FullStore(DSMirFlickr)
	// Pick one representative model per task for the display matrix.
	displayTasks := []string{
		"pose-openpose", "facedet-mtcnn", "objdet-accurate",
		"action-i3d", "placecls-resnet", "dogcls-finegrained",
	}
	res := Fig1Result{}
	var modelIdx []int
	for _, name := range displayTasks {
		m, ok := l.Zoo.ByName(name)
		if !ok {
			panic(fmt.Sprintf("experiments: fig1 model %q missing", name))
		}
		res.Models = append(res.Models, name)
		modelIdx = append(modelIdx, m.ID)
	}
	// Sample a few diverse images: first with a dog, first with people,
	// first with neither, plus two more arbitrary ones.
	seen := map[int]bool{}
	pick := func(pred func(i int) bool) {
		for i := 0; i < st.NumScenes(); i++ {
			if !seen[i] && pred(i) {
				seen[i] = true
				res.Images = append(res.Images, i)
				return
			}
		}
	}
	pick(func(i int) bool { return st.Scenes[i].HasDog() })
	pick(func(i int) bool { return st.Scenes[i].Persons > 1 })
	pick(func(i int) bool { return !st.Scenes[i].HasPerson() && !st.Scenes[i].HasDog() })
	pick(func(i int) bool { return st.Scenes[i].HasFace() })
	pick(func(i int) bool { return true })

	res.Cells = make([][]Fig1Cell, len(modelIdx))
	for mi, m := range modelIdx {
		res.Cells[mi] = make([]Fig1Cell, len(res.Images))
		for ii, img := range res.Images {
			res.Cells[mi][ii] = classify(st.Output(img, m))
		}
	}

	// Corpus accounting over every (image, model) pair.
	for i := 0; i < st.NumScenes(); i++ {
		for m := 0; m < st.NumModels(); m++ {
			res.TotalExecutions++
			if st.ModelValue(i, m) > 0 {
				res.UsefulExecutions++
			}
		}
	}
	res.WastedFraction = 1 - float64(res.UsefulExecutions)/float64(res.TotalExecutions)
	return res
}

// classify buckets one output like the paper's blue/grey/white boxes.
func classify(out zoo.Output) Fig1Cell {
	if len(out.Labels) == 0 {
		return CellNoOutput
	}
	for _, lc := range out.Labels {
		if lc.Conf >= zoo.ValuableThreshold {
			return CellUseful
		}
	}
	return CellLowConf
}

// Format renders the motivation matrix and the waste headline.
func (r Fig1Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig. 1 — output of diverse models on sample images\n")
	headers := []string{"model"}
	for _, img := range r.Images {
		headers = append(headers, fmt.Sprintf("img%d", img))
	}
	rows := make([][]string, len(r.Models))
	for mi, name := range r.Models {
		row := []string{name}
		for ii := range r.Images {
			row = append(row, r.Cells[mi][ii].String())
		}
		rows[mi] = row
	}
	b.WriteString(table(headers, rows))
	fmt.Fprintf(&b, "corpus: %d/%d executions useful; %.1f%% of all-model compute is waste\n",
		r.UsefulExecutions, r.TotalExecutions, 100*r.WastedFraction)
	return b.String()
}
