package ams

import (
	"errors"
	"reflect"
	"testing"

	"ams/internal/oracle"
	"ams/internal/zoo"
)

// registryPolicies returns every built-in policy, the stochastic one
// pinned to a seed so paired runs draw identical streams.
func registryPolicies() []Policy {
	return []Policy{PolicyAlgorithm1, PolicyAlgorithm2, PolicyQGreedy, PolicyRandom.WithSeed(42)}
}

// TestBatchSizeOneBitIdenticalAcrossPolicies: BatchSize 1 routes every
// execution through the batching machinery alone, which must reproduce
// the unbatched server bit for bit — schedules, labels, recall, and
// nominal times — for every registry policy, in both execution modes
// (Algorithm 2 serves per-item parallel, the rest serial).
//
// The serial policies are then held to the same equality under real
// coalescing — BatchSize 4 across 4 workers with no memory budget (the
// 100 ms hold lets same-model demand from concurrent items meet):
// deadline accounting is nominal and nothing about the batch lanes
// reaches a policy, so with no live memory headroom to read either,
// batching cannot move a schedule, a label or recall.
func TestBatchSizeOneBitIdenticalAcrossPolicies(t *testing.T) {
	const items = 8
	for _, pol := range registryPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			run := func(workers int, memoryGB float64, batchSize int) []*Result {
				cfg := ServeConfig{
					Workers:     workers,
					Policy:      pol,
					DeadlineSec: 0.5,
					MemoryGB:    memoryGB,
					TimeScale:   0.001,
					BatchSize:   batchSize,
					BatchHoldMS: 100,
				}
				srv, err := testSys.NewServer(testAgent, cfg)
				if err != nil {
					t.Fatal(err)
				}
				closeAtCleanup(t, srv, cfg)
				tickets := make([]*ServeTicket, items)
				for i := range tickets {
					if tickets[i], err = srv.SubmitWait(bg, testSys.TestItem(i)); err != nil {
						t.Fatal(err)
					}
				}
				out := make([]*Result, items)
				for i, tk := range tickets {
					if out[i], err = tk.Wait(bg); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			same := func(what string, got, want []*Result) {
				t.Helper()
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("item %d: %s result diverges from unbatched:\n%+v\nvs\n%+v",
							i, what, got[i], want[i])
					}
				}
			}
			same("batch=1", run(1, 8, 1), run(1, 8, 0))
			if !pol.parallel {
				same("batch=4 across 4 workers", run(4, 0, 4), run(4, 0, 0))
			}
		})
	}
}

// TestBatchedServingPreservesOutputs: under real cross-item batching —
// concurrent workers, coalesced executions, the shared predictor cache —
// every item's delivered result must be bit-identical to a pure
// recomputation of its committed schedule against the store. Batches
// share GPU time and footprints, never outputs.
func TestBatchedServingPreservesOutputs(t *testing.T) {
	idxOf := make(map[string]int, len(testSys.Zoo.Models))
	for i, m := range testSys.Zoo.Models {
		idxOf[m.Name] = i
	}
	for _, pol := range registryPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := ServeConfig{
				Workers:        4,
				Policy:         pol,
				DeadlineSec:    0.5,
				MemoryGB:       6,
				TimeScale:      0.001,
				BatchSize:      4,
				BatchHoldMS:    100,
				PredictorCache: true,
				QueueCap:       64,
			}
			srv, err := testSys.NewServer(testAgent, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := testSys.NumTestImages()
			tickets := make([]*ServeTicket, 0, 2*n)
			for i := 0; i < 2*n; i++ {
				tk, err := srv.SubmitWait(bg, testSys.TestItem(i%n))
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
			for _, tk := range tickets {
				res, err := tk.Wait(bg)
				if err != nil {
					t.Fatal(err)
				}
				tr := oracle.NewTracker(testSys.testStore, res.Image)
				outs := make([]zoo.Output, 0, len(res.ModelsRun))
				for _, name := range res.ModelsRun {
					m, ok := idxOf[name]
					if !ok {
						t.Fatalf("item %d ran unknown model %q", res.Image, name)
					}
					tr.Execute(m)
					outs = append(outs, testSys.testStore.Output(res.Image, m))
				}
				pure := testSys.assembleResult(testSys.TestItem(res.Image), res.ModelsRun,
					outs, res.TimeSec*1000, tr.Recall(), tr.HasTruth())
				if !reflect.DeepEqual(res, pure) {
					t.Fatalf("item %d: batched result diverges from pure recomputation:\n%+v\nvs\n%+v",
						res.Image, res, pure)
				}
			}
			if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			if st.BatchedRequests == 0 {
				t.Fatal("batching path never exercised")
			}
			if st.PredCacheHits+st.PredCacheMisses == 0 && pol.needsAgent {
				t.Fatal("shared predictor cache never consulted")
			}
		})
	}
}

// TestBudgetedBatchingScheduleIndependentOfWorkers: under a memory
// budget a serial item's batch owns its footprint and waits for it in
// the accountant's grant line, so the policy is shown the whole budget
// rather than live headroom. Each item's schedule is then a function of
// (agent, item, budget) alone: eight workers contending for 1 GB through
// batches of up to eight give every item the models, recall and time a
// one-worker server gives it — in either submission order.
func TestBudgetedBatchingScheduleIndependentOfWorkers(t *testing.T) {
	n := testSys.NumTestImages()
	for _, pol := range registryPolicies() {
		if pol.parallel {
			continue
		}
		t.Run(pol.Name(), func(t *testing.T) {
			run := func(workers int, reverse bool) []*Result {
				cfg := ServeConfig{
					Workers:     workers,
					Policy:      pol,
					DeadlineSec: 0.2,
					MemoryGB:    1,
					TimeScale:   0.001,
					BatchSize:   8,
					QueueCap:    n,
				}
				srv, err := testSys.NewServer(testAgent, cfg)
				if err != nil {
					t.Fatal(err)
				}
				closeAtCleanup(t, srv, cfg)
				tickets := make([]*ServeTicket, n)
				for k := range tickets {
					i := k
					if reverse {
						i = n - 1 - k
					}
					if tickets[i], err = srv.SubmitWait(bg, testSys.TestItem(i)); err != nil {
						t.Fatal(err)
					}
				}
				out := make([]*Result, n)
				for i, tk := range tickets {
					if out[i], err = tk.Wait(bg); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			want := run(1, false)
			for _, reverse := range []bool{false, true} {
				got := run(8, reverse)
				for i := range want {
					if !reflect.DeepEqual(got[i].ModelsRun, want[i].ModelsRun) ||
						got[i].Recall != want[i].Recall || got[i].TimeSec != want[i].TimeSec {
						t.Fatalf("item %d (reverse %v): 8 workers ran %v (recall %v, %v s), one worker %v (recall %v, %v s)",
							i, reverse, got[i].ModelsRun, got[i].Recall, got[i].TimeSec,
							want[i].ModelsRun, want[i].Recall, want[i].TimeSec)
					}
				}
			}
		})
	}
}
