package serve

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/service"
	"ams/internal/sim"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// runSequential serves items 0..n-1 one at a time on a fresh server and
// returns their results. With one worker and strictly sequential
// submits the run is deterministic, which makes schedules comparable
// across server configurations.
func runSequential(t *testing.T, cfg Config, factory service.PolicyFactory, n int) []ItemResult {
	t.Helper()
	s, err := New(store, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	results := make([]ItemResult, n)
	for i := 0; i < n; i++ {
		tk, err := s.SubmitWait(context.Background(), i, "")
		if err != nil {
			t.Fatal(err)
		}
		results[i] = tk.Wait()
	}
	return results
}

// TestBatchSizeOneMatchesUnbatched: with MaxBatch = 1 the batching
// runtime reproduces the unbatched reserve → sleep → release sequence,
// so every schedule is identical to the batching-disabled server's — in
// both execution modes.
func TestBatchSizeOneMatchesUnbatched(t *testing.T) {
	const items = 12
	serial := fast(1)
	serial.MemoryBudgetMB = 6000
	parallel := itemParallelConfig(1)
	for _, tc := range []struct {
		name    string
		cfg     Config
		factory service.PolicyFactory
	}{
		{"serial", serial, randomFactory(5)},
		{"item-parallel", parallel, func(worker int) sim.Policy {
			return sched.NewRandomPacker(z, tensor.NewRNG(23+uint64(worker)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := runSequential(t, tc.cfg, tc.factory, items)
			batched := tc.cfg
			batched.BatchSize = 1
			got := runSequential(t, batched, tc.factory, items)
			for i := range plain {
				if !reflect.DeepEqual(got[i].Executed, plain[i].Executed) {
					t.Fatalf("item %d: batch=1 schedule %v != unbatched %v", i, got[i].Executed, plain[i].Executed)
				}
				if got[i].Recall != plain[i].Recall || got[i].ScheduleMS != plain[i].ScheduleMS {
					t.Fatalf("item %d: batch=1 recall/schedule (%v, %v) != unbatched (%v, %v)",
						i, got[i].Recall, got[i].ScheduleMS, plain[i].Recall, plain[i].ScheduleMS)
				}
			}
		})
	}
}

// TestBatchingStress hammers the batching path the way the race job
// wants it hammered: a pool of workers all scheduling the same hot
// models under a short deadline and a tight shared memory budget, so
// lanes fill, hold timers race size flushes, and the batch runtime's
// single-reservation path contends with the accountant. Every item's
// outputs and recall must still be exactly what a pure recomputation of
// its committed schedule yields.
func TestBatchingStress(t *testing.T) {
	cfg := fast(8)
	cfg.BatchSize = 8
	cfg.BatchHoldMS = 300
	cfg.MemoryBudgetMB = 4000
	cfg.QueueCap = 64
	s, err := New(store, fixedFactory(6, 11, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := store.NumScenes()
	tickets := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		if tickets[i], err = s.SubmitWait(context.Background(), i, ""); err != nil {
			t.Fatal(err)
		}
	}
	var totalExecuted int64
	for _, tk := range tickets {
		res := tk.Wait()
		totalExecuted += int64(len(res.Executed))
		// Batched execution must not leak anything across the items it
		// coalesces: outputs and recall are per-item, bit for bit.
		tr := oracle.NewTracker(store, res.Image)
		for j, m := range res.Executed {
			tr.Execute(m)
			if want := store.Output(res.Image, m); !reflect.DeepEqual(res.Outputs[j], want) {
				t.Fatalf("item %d model %d: batched output %+v != store output %+v", res.Image, m, res.Outputs[j], want)
			}
		}
		if res.Recall != tr.Recall() {
			t.Fatalf("item %d: recall %v != recomputed %v over %v", res.Image, res.Recall, tr.Recall(), res.Executed)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Snapshot()
	if st.Completed != int64(n) {
		t.Fatalf("completed %d of %d items", st.Completed, n)
	}
	if st.Batching.Requests != totalExecuted {
		t.Fatalf("batching served %d requests, executions totalled %d", st.Batching.Requests, totalExecuted)
	}
	// A hot-model pool this saturated coalesces somewhere: 8 workers
	// enqueue the same three lanes hundreds of times within each hold
	// window.
	if st.Batching.Batches >= st.Batching.Requests {
		t.Fatalf("no coalescing at all: %d batches for %d requests", st.Batching.Batches, st.Batching.Requests)
	}
	if st.Batching.SavedGPUMS <= 0 {
		t.Fatalf("coalesced batches saved no GPU time: %+v", st.Batching)
	}
}

// TestMustReservePanicNamesPolicy is the regression test for the
// ignored-reserve-result bug: the accountant's "this footprint can
// never fit the budget" return was silently discarded, letting an
// execution proceed with no reservation at all. The server now treats
// it as a policy contract violation and says which policy.
func TestMustReservePanicNamesPolicy(t *testing.T) {
	s := &Server{
		acct: newAccountant(500),
		cfg:  Config{Config: service.Config{MemoryBudgetMB: 500}},
	}
	oversized := &zoo.Model{TimeMS: 100, MemMB: 9999}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mustReserve swallowed an impossible reservation")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "fixed") || !strings.Contains(msg, "exceeds the whole memory budget") {
			t.Fatalf("panic %v does not name the policy and the violation", r)
		}
	}()
	s.mustReserve(&fixedPolicy{}, 7, oversized)
}
