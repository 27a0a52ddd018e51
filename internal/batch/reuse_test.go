package batch

import (
	"sync"
	"testing"
	"time"

	"ams/internal/obs"
)

// instantMem grants every claim at once, on the caller, and records
// nothing: a Memory that allocates nothing of its own.
type instantMem struct{}

func (instantMem) Grant(_ float64, fn func(at time.Time)) { fn(time.Now()) }
func (instantMem) Release(float64, time.Time)             {}

// TestSteadyStateAllocatesNothing: once a lane's slices and free list
// have grown, an enqueue → wait cycle on one reused capacity-1 done
// allocates nothing, on an owned lane (sealed at its grant), on a hold
// lane (sealed by its timer) and on a lane sealed at MaxBatch 1, traced
// or not.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mem   Memory
		owned bool
		cfg   Config
	}{
		{"owned", instantMem{}, true, Config{MaxBatch: 8, TimeScale: 1e-6}},
		{"hold", nil, false, Config{MaxBatch: 8, MaxHoldMS: 1, TimeScale: 1e-6}},
		{"size", nil, false, Config{MaxBatch: 1, MaxHoldMS: 1, TimeScale: 1e-6}},
	} {
		for _, ref := range []*obs.BatchRef{nil, {}} {
			b, _ := newBatcher(t, tc.mem, tc.cfg)
			done := make(chan struct{}, 1)
			cycle := func() {
				b.Enqueue(0, tc.owned, done, ref)
				<-done
			}
			for range 10 { // grow the lane, its free list and the wheel's heap
				cycle()
			}
			if got := testing.AllocsPerRun(200, cycle); got != 0 {
				t.Errorf("%s lane, traced %v: %v allocations per enqueue → wait, want 0", tc.name, ref != nil, got)
			}
		}
	}
}

// TestDoneSignalledOnce: a buffered done receives exactly one value per
// batch, and is empty again once that value is taken, so a waiter can
// reuse it for its next request; an unbuffered done is closed, as
// callers that keep one channel per request expect.
func TestDoneSignalledOnce(t *testing.T) {
	b, _ := newBatcher(t, nil, Config{MaxBatch: 3, MaxHoldMS: 1e6, TimeScale: 0.01})
	dones := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1), make(chan struct{}, 1)}
	for round := 1; round <= 3; round++ {
		for _, d := range dones {
			b.Enqueue(0, false, d, nil) // the third seals the batch at MaxBatch
		}
		for i, d := range dones {
			if _, ok := <-d; !ok {
				t.Fatalf("round %d: buffered done %d was closed, want one send", round, i)
			}
		}
		if st := b.Stats(); st.Batches != int64(round) {
			t.Fatalf("round %d: %d batches finished", round, st.Batches)
		}
		for i, d := range dones {
			if len(d) != 0 {
				t.Fatalf("round %d: buffered done %d holds %d more signals after its receive", round, i, len(d))
			}
		}
	}

	unbuffered := make(chan struct{})
	hb, _ := newBatcher(t, nil, Config{MaxBatch: 8, MaxHoldMS: 1, TimeScale: 0.01})
	hb.Enqueue(1, false, unbuffered, nil)
	<-unbuffered
	if _, ok := <-unbuffered; ok {
		t.Fatal("unbuffered done received a value, want it closed")
	}
}

// lineMem is a budgeted Memory with an ordered grant line, like the
// server's accountant: a grant that fits with nobody queued runs at once
// on the caller, the rest run on the Release that frees enough — here,
// on the wheel's dispatcher as a batch finishes.
type lineMem struct {
	mu     sync.Mutex
	budget float64
	used   float64
	line   []lineWait
}

// lineWait is one grant waiting in lineMem's line.
type lineWait struct {
	mb float64
	heldGrant
}

func (l *lineMem) Grant(mb float64, fn func(at time.Time)) {
	now := time.Now()
	l.mu.Lock()
	if len(l.line) == 0 && l.used+mb <= l.budget {
		l.used += mb
		l.mu.Unlock()
		fn(now)
		return
	}
	l.line = append(l.line, lineWait{mb, heldGrant{queued: now, fn: fn}})
	l.mu.Unlock()
}

func (l *lineMem) Release(mb float64, at time.Time) {
	l.mu.Lock()
	l.used -= mb
	var served []lineWait
	for len(l.line) > 0 && l.used+l.line[0].mb <= l.budget {
		l.used += l.line[0].mb
		served = append(served, l.line[0])
		l.line = l.line[1:]
	}
	l.mu.Unlock()
	for _, g := range served {
		start := at
		if g.queued.After(start) {
			start = g.queued
		}
		g.fn(start)
	}
}

// TestRecycledBatchesHammer (run with -race): goroutines each reuse one
// capacity-1 done and one BatchRef across thousands of batches on an
// owned lane, served by a budgeted grant line, and on a hold lane, at
// MaxBatch 1 and 8. Every request is signalled exactly once, every ref
// describes the batch it rode, and the counters balance.
func TestRecycledBatchesHammer(t *testing.T) {
	const workers, perWorker = 8, 1000
	for _, maxBatch := range []int{1, 8} {
		mem := &lineMem{budget: testModels()[0].MemMB}
		b, _ := newBatcher(t, mem, Config{MaxBatch: maxBatch, MaxHoldMS: 0.05, TimeScale: 1e-4})
		var wg sync.WaitGroup
		dones := make([]chan struct{}, workers)
		for w := range workers {
			dones[w] = make(chan struct{}, 1)
			wg.Add(1)
			go func(m int, owned bool, done chan struct{}) {
				defer wg.Done()
				ref := &obs.BatchRef{}
				for i := range perWorker {
					*ref = obs.BatchRef{}
					b.Enqueue(m, owned, done, ref)
					if _, ok := <-done; !ok {
						t.Errorf("MaxBatch %d, model %d: request %d's buffered done was closed", maxBatch, m, i)
						return
					}
					if len(done) != 0 {
						t.Errorf("MaxBatch %d, model %d: request %d signalled twice", maxBatch, m, i)
						return
					}
					if ref.Batch == 0 || ref.N < 1 || ref.N > maxBatch {
						t.Errorf("MaxBatch %d, model %d: request %d's ref %+v", maxBatch, m, i, *ref)
						return
					}
				}
			}(w%2, w%2 == 0, dones[w])
		}
		wg.Wait()
		st := b.Stats()
		if st.Requests != workers*perWorker {
			t.Fatalf("MaxBatch %d: %d requests counted, %d enqueued", maxBatch, st.Requests, workers*perWorker)
		}
		if st.LargestBatch > maxBatch {
			t.Fatalf("MaxBatch %d: a batch of %d", maxBatch, st.LargestBatch)
		}
		for w, d := range dones {
			if len(d) != 0 {
				t.Fatalf("MaxBatch %d: worker %d's done holds a signal nobody asked for", maxBatch, w)
			}
		}
		if b.Queued(0) != 0 || b.Queued(1) != 0 {
			t.Fatalf("MaxBatch %d: demand left after drain: %d/%d", maxBatch, b.Queued(0), b.Queued(1))
		}
		mem.mu.Lock()
		used, waiting := mem.used, len(mem.line)
		mem.mu.Unlock()
		if used != 0 || waiting != 0 {
			t.Fatalf("MaxBatch %d: %v MB still claimed, %d grants in line", maxBatch, used, waiting)
		}
	}
}
