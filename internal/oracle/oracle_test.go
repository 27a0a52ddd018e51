package oracle

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ams/internal/labels"
	"ams/internal/synth"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 60, 41)
	store = Build(z, ds.Scenes)
)

func TestStoreShape(t *testing.T) {
	if store.NumScenes() != 60 || store.NumModels() != zoo.NumModels {
		t.Fatalf("store shape %dx%d", store.NumScenes(), store.NumModels())
	}
}

func TestStoreMatchesLiveInference(t *testing.T) {
	for i := 0; i < 10; i++ {
		for mi, m := range z.Models {
			live := m.Infer(&ds.Scenes[i])
			stored := store.Output(i, mi)
			if len(live.Labels) != len(stored.Labels) {
				t.Fatalf("stored output differs from live inference (scene %d model %s)", i, m.Name)
			}
		}
	}
}

func TestTotalValueConsistency(t *testing.T) {
	// Total value must equal the value recalled after executing all models.
	for i := 0; i < store.NumScenes(); i++ {
		tr := NewTracker(store, i)
		for m := 0; m < store.NumModels(); m++ {
			tr.Execute(m)
		}
		if diff := tr.recalledValue - store.TotalValue(i); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("scene %d: recalled %v != total %v", i, tr.recalledValue, store.TotalValue(i))
		}
		if r := tr.Recall(); r < 1-1e-9 || r > 1+1e-9 {
			t.Fatalf("scene %d: full execution recall %v != 1", i, r)
		}
	}
}

func TestRecallMonotoneNondecreasing(t *testing.T) {
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		i := rng.Intn(store.NumScenes())
		tr := NewTracker(store, i)
		prev := tr.Recall()
		if store.TotalValue(i) > 0 && prev != 0 {
			t.Fatalf("fresh tracker recall %v != 0", prev)
		}
		for _, m := range rng.Perm(store.NumModels()) {
			tr.Execute(m)
			r := tr.Recall()
			if r < prev-1e-12 {
				t.Fatalf("recall decreased: %v -> %v", prev, r)
			}
			if r > 1+1e-12 {
				t.Fatalf("recall exceeded 1: %v", r)
			}
			prev = r
		}
	}
}

func TestExecuteTwicePanics(t *testing.T) {
	tr := NewTracker(store, 0)
	tr.Execute(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double execution did not panic")
		}
	}()
	tr.Execute(0)
}

func TestFreshLabelsNeverRepeat(t *testing.T) {
	tr := NewTracker(store, 3)
	seen := map[int]bool{}
	for m := 0; m < store.NumModels(); m++ {
		_, fresh := tr.Execute(m)
		for _, lc := range fresh {
			if seen[lc.ID] {
				t.Fatalf("label %d reported fresh twice", lc.ID)
			}
			seen[lc.ID] = true
		}
	}
	if len(seen) != len(tr.State()) {
		t.Fatalf("state size %d != distinct fresh labels %d", len(tr.State()), len(seen))
	}
}

func TestStateSorted(t *testing.T) {
	tr := NewTracker(store, 7)
	for m := 0; m < store.NumModels(); m++ {
		tr.Execute(m)
		s := tr.State()
		for j := 1; j < len(s); j++ {
			if s[j-1] >= s[j] {
				t.Fatalf("state not strictly sorted at %d: %v", j, s)
			}
		}
	}
}

func TestOptimalOrderSortsValue(t *testing.T) {
	for i := 0; i < 20; i++ {
		order := store.OptimalOrder(i)
		if len(order) != store.NumModels() {
			t.Fatalf("order length %d", len(order))
		}
		for j := 1; j < len(order); j++ {
			if store.ModelValue(i, order[j-1]) < store.ModelValue(i, order[j]) {
				t.Fatalf("scene %d order not descending at %d", i, j)
			}
		}
	}
}

func TestValuableModelsMatchModelValue(t *testing.T) {
	for i := 0; i < store.NumScenes(); i++ {
		set := map[int]bool{}
		for _, m := range store.ValuableModels(i) {
			set[m] = true
			if store.ModelValue(i, m) <= 0 {
				t.Fatalf("valuable model %d has value 0", m)
			}
		}
		for m := 0; m < store.NumModels(); m++ {
			if !set[m] && store.ModelValue(i, m) > 0 {
				t.Fatalf("model %d has value but not listed valuable", m)
			}
		}
	}
}

func TestOptimalTimeLessThanTotal(t *testing.T) {
	total := z.TotalTimeMS()
	var sum float64
	for i := 0; i < store.NumScenes(); i++ {
		opt := store.OptimalTimeMS(i)
		if opt > total {
			t.Fatalf("scene %d optimal time exceeds no-policy time", i)
		}
		sum += opt
	}
	avg := sum / float64(store.NumScenes())
	// The headline waste claim: the optimal policy should cost well below
	// the ~5.16 s "no policy" average.
	if avg > 0.6*total {
		t.Fatalf("optimal avg %v not clearly below no-policy %v", avg, total)
	}
}

// Property: the evaluation function f(S) = recalled value is submodular
// and monotone. Check monotonicity plus the diminishing-returns inequality
// f(A ∪ {m}) − f(A) ≥ f(B ∪ {m}) − f(B) for random A ⊆ B and m ∉ B.
func TestEvaluationSubmodular(t *testing.T) {
	valueOf := func(scene int, set []int) float64 {
		tr := NewTracker(store, scene)
		for _, m := range set {
			tr.Execute(m)
		}
		return tr.recalledValue
	}
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		scene := rng.Intn(store.NumScenes())
		perm := rng.Perm(store.NumModels())
		aLen := rng.Intn(10)
		bLen := aLen + rng.Intn(10)
		if bLen >= len(perm) {
			bLen = len(perm) - 1
		}
		if aLen > bLen {
			aLen = bLen
		}
		a, b := perm[:aLen], perm[:bLen]
		m := perm[len(perm)-1]
		fa := valueOf(scene, a)
		fam := valueOf(scene, append(append([]int(nil), a...), m))
		fb := valueOf(scene, b)
		fbm := valueOf(scene, append(append([]int(nil), b...), m))
		// Monotone.
		if fam < fa-1e-9 || fbm < fb-1e-9 || fb < fa-1e-9 {
			return false
		}
		// Submodular.
		return (fam - fa) >= (fbm-fb)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalValueAgainstBruteForce(t *testing.T) {
	rng := tensor.NewRNG(9)
	for trial := 0; trial < 30; trial++ {
		scene := rng.Intn(store.NumScenes())
		tr := NewTracker(store, scene)
		executedSet := []int{}
		for _, m := range rng.Perm(store.NumModels())[:rng.Intn(8)] {
			tr.Execute(m)
			executedSet = append(executedSet, m)
		}
		for m := range tr.Unexecuted() {
			// Brute force: value after executing m minus value now.
			tr2 := NewTracker(store, scene)
			for _, e := range executedSet {
				tr2.Execute(e)
			}
			before := tr2.recalledValue
			tr2.Execute(m)
			want := tr2.recalledValue - before
			got := tr.MarginalValue(m)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("MarginalValue(%d) = %v, brute force %v", m, got, want)
			}
		}
	}
}

// TestSeedIsTheItemsIdentity: an item answers the same seed — its
// scene's — from the store, from an external item's one-item executor,
// and from a tracker over that executor.
func TestSeedIsTheItemsIdentity(t *testing.T) {
	ex := NewExternalItem(store.Zoo, store.Scenes[2]).Executor()
	want := store.Scenes[2].Seed
	for name, got := range map[string]uint64{
		"store": store.Seed(2), "item": ex.Seed(0), "tracker": NewTracker(ex, 0).Seed(),
	} {
		if got != want {
			t.Errorf("%s: seed %#x, want the scene's %#x", name, got, want)
		}
	}
	if store.Seed(0) == want {
		t.Fatal("two test scenes share a seed; the check above proves nothing")
	}
}

func TestUnexecutedShrinks(t *testing.T) {
	tr := NewTracker(store, 1)
	if len(slices.Collect(tr.Unexecuted())) != store.NumModels() {
		t.Fatal("fresh tracker should have all models unexecuted")
	}
	tr.Execute(5)
	un := slices.Collect(tr.Unexecuted())
	if len(un) != store.NumModels()-1 {
		t.Fatalf("unexecuted count %d", len(un))
	}
	for _, m := range un {
		if m == 5 {
			t.Fatal("executed model still listed")
		}
	}
}

// TestTrackerCarriesInFlightSet: a launched model leaves the candidates
// but stays unexecuted until it commits; Launch refuses a model that is
// not a candidate; Execute works with or without a preceding Launch;
// ranging over either view allocates nothing; and Reset starts an empty
// state on the tracker's own backing arrays.
func TestTrackerCarriesInFlightSet(t *testing.T) {
	tr := NewTracker(store, 1)
	n := store.NumModels()
	if !tr.Launch(5) || !tr.Launch(9) {
		t.Fatal("Launch refused a candidate")
	}
	if tr.Launch(5) {
		t.Fatal("Launch accepted a model already in flight")
	}
	if tr.Candidate(5) || tr.status[5] == executed || !tr.Candidate(6) || tr.InFlightCount() != 2 || tr.CandidateCount() != n-2 {
		t.Fatalf("in-flight bookkeeping: Candidate(5)=%v Executed(5)=%v in flight %d, candidates %d",
			tr.Candidate(5), tr.status[5] == executed, tr.InFlightCount(), tr.CandidateCount())
	}
	if un, cand := slices.Collect(tr.Unexecuted()), slices.Collect(tr.Candidates()); len(un) != n || len(cand) != n-2 {
		t.Fatalf("views: %d unexecuted, %d candidates, want %d and %d", len(un), len(cand), n, n-2)
	}
	for m := range tr.Candidates() {
		if m == 5 || m == 9 {
			t.Fatalf("in-flight model %d listed as a candidate", m)
		}
	}
	tr.Execute(5) // commits a launched model
	tr.Execute(7) // an executor that never calls Launch
	if tr.Candidate(5) || tr.status[5] != executed || tr.status[7] != executed || tr.InFlightCount() != 1 || tr.ExecutedCount() != 2 || tr.CandidateCount() != n-3 {
		t.Fatalf("after commits: Candidate(5)=%v in flight %d, executed %d, candidates %d",
			tr.Candidate(5), tr.InFlightCount(), tr.ExecutedCount(), tr.CandidateCount())
	}
	if tr.Launch(7) {
		t.Fatal("Launch accepted an executed model")
	}
	count := func() (un, cand int) {
		for range tr.Unexecuted() {
			un++
		}
		for range tr.Candidates() {
			cand++
		}
		return un, cand
	}
	if un, cand := count(); un != n-2 || cand != n-3 {
		t.Fatalf("views after commits: %d unexecuted, %d candidates", un, cand)
	}
	if a := testing.AllocsPerRun(20, func() { count() }); a != 0 {
		t.Fatalf("ranging over Unexecuted and Candidates allocated %v times, want 0", a)
	}

	tr.Reset(store, 2)
	if tr.ExecutedCount() != 0 || tr.InFlightCount() != 0 || tr.CandidateCount() != n || len(tr.State()) != 0 || tr.Recall() != 0 {
		t.Fatalf("after Reset: executed %d, in flight %d, candidates %d, state %v, recall %v",
			tr.ExecutedCount(), tr.InFlightCount(), tr.CandidateCount(), tr.State(), tr.Recall())
	}
	runAll := func() {
		tr.Reset(store, 2)
		for m := range n {
			tr.Execute(m)
		}
	}
	runAll()
	fresh := NewTracker(store, 2)
	for m := range n {
		fresh.Execute(m)
	}
	if !slices.Equal(tr.State(), fresh.State()) || tr.Recall() != fresh.Recall() {
		t.Fatalf("a reset tracker disagrees with a new one: recall %v vs %v", tr.Recall(), fresh.Recall())
	}
	if a := testing.AllocsPerRun(5, runAll); a != 0 {
		t.Fatalf("relabeling an item on a reset tracker allocated %v times, want 0: Reset keeps the backing arrays", a)
	}
}

// TestExecuteReportsFreshLabelsOnce: the sorted state is the emitted-label
// set — a label is fresh exactly when it was not in it.
func TestExecuteReportsFreshLabelsOnce(t *testing.T) {
	tr := NewTracker(store, 1)
	seen := map[int]bool{}
	for m := 0; m < store.NumModels(); m++ {
		out, fresh := tr.Execute(m)
		if !reflect.DeepEqual(out, store.Output(1, m)) {
			t.Fatalf("model %d: Execute returned an output the store does not hold", m)
		}
		want := 0
		for _, lc := range store.Output(1, m).Labels {
			if !seen[lc.ID] {
				seen[lc.ID] = true
				want++
			}
		}
		if len(fresh) != want {
			t.Fatalf("model %d: %d fresh labels, want %d", m, len(fresh), want)
		}
	}
	if st := tr.State(); len(st) != len(seen) || !sort.IntsAreSorted(st) {
		t.Fatalf("state has %d labels (sorted=%v), want %d", len(st), sort.IntsAreSorted(st), len(seen))
	}
}

func TestTrackerSceneOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range scene did not panic")
		}
	}()
	NewTracker(store, store.NumScenes())
}

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Build did not panic")
		}
	}()
	Build(z, nil)
}

// TestEvictFreesTheMemo: Evict reclaims the memo without allocating a
// fresh one, an evicted item reports no memos, and its next Output
// recomputes the evicted output bit-identically.
func TestEvictFreesTheMemo(t *testing.T) {
	it := NewExternalItem(z, ds.Scenes[4])
	want := it.Output(3)
	if allocs := testing.AllocsPerRun(10, it.Evict); allocs != 0 {
		t.Fatalf("Evict allocated %v times per call, want 0", allocs)
	}
	if models, _ := it.Memos(); it.MemoCount() != 0 || models != nil {
		t.Fatalf("evicted item still holds %d memos (%v)", it.MemoCount(), models)
	}
	if got := it.Output(3); !reflect.DeepEqual(got, want) || it.MemoCount() != 1 {
		t.Fatalf("re-served output %+v (%d memos), want %+v", got, it.MemoCount(), want)
	}
}
