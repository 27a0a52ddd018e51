package vtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepElapses(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	start := time.Now()
	w.Sleep(20 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("slept %v, want >= 20ms", elapsed)
	}
}

func TestZeroSleepAndAfterFuncAreImmediate(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	w.Sleep(0)
	w.Sleep(-time.Second)
	ran := false
	w.AfterFunc(0, func() { ran = true }) // synchronous for d <= 0
	if !ran {
		t.Fatal("zero-delay AfterFunc did not run synchronously")
	}
}

// TestManyConcurrentSleepers is the wheel's reason to exist: hundreds of
// concurrent sleeps share one dispatcher, every one of them completes,
// and none returns early — on the runtime-timer range (1–25 ms) and on
// the precise range (50–900 µs), where a nanosleep cut short by a signal
// must not fire anything ahead of its deadline.
func TestManyConcurrentSleepers(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    func(i int) time.Duration
	}{
		{"1-25ms", func(i int) time.Duration { return time.Duration(1+i%25) * time.Millisecond }},
		{"50-900us", func(i int) time.Duration { return time.Duration(50+i%18*50) * time.Microsecond }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWheel()
			defer w.Stop()
			const n = 400
			var wg sync.WaitGroup
			var early atomic.Int64
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(d time.Duration) {
					defer wg.Done()
					start := time.Now()
					w.Sleep(d)
					if time.Since(start) < d {
						early.Add(1)
					}
				}(tc.d(i))
			}
			wg.Wait()
			if early.Load() != 0 {
				t.Fatalf("%d sleeps returned early", early.Load())
			}
			if w.pending() != 0 {
				t.Fatalf("%d waiters left after all sleeps returned", w.pending())
			}
		})
	}
}

// TestAfterFuncOrdering: expirations fire in deadline order even when
// pushed out of order, with same-instant ties broken by insertion order.
func TestAfterFuncOrdering(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	wg.Add(3)
	record := func(id int) func() {
		return func() {
			mu.Lock()
			got = append(got, id)
			mu.Unlock()
			wg.Done()
		}
	}
	w.AfterFunc(30*time.Millisecond, record(3))
	w.AfterFunc(10*time.Millisecond, record(1))
	w.AfterFunc(20*time.Millisecond, record(2))
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("fire order %v, want [1 2 3]", got)
		}
	}
}

// TestWaiterHeapOrder drives the hand-written heap directly: waiters
// pushed in a scrambled order, many sharing an instant, with pops
// interleaved, each pop returns the least pending waiter by deadline and
// then insertion order.
func TestWaiterHeapOrder(t *testing.T) {
	base := time.Unix(0, 0)
	var h, pending waiterHeap // the heap, and the same waiters unordered
	pop := func() {
		m := 0
		for j := range pending {
			if pending.less(j, m) {
				m = j
			}
		}
		if got := h.pop(); got.at != pending[m].at || got.seq != pending[m].seq {
			t.Fatalf("pop returned deadline %v seq %d, want deadline %v seq %d",
				got.at.Sub(base), got.seq, pending[m].at.Sub(base), pending[m].seq)
		}
		pending = append(pending[:m], pending[m+1:]...)
	}
	for i := range 200 {
		w := waiter{at: base.Add(time.Duration((i * 37) % 23)), seq: uint64(i)}
		h.push(w)
		pending = append(pending, w)
		if i%3 == 2 {
			pop()
		}
	}
	for len(pending) > 0 {
		pop()
	}
	if len(h) != 0 {
		t.Fatalf("%d waiters left in the heap", len(h))
	}
}

func TestStopDropsPending(t *testing.T) {
	w := NewWheel()
	var fired atomic.Bool
	w.AfterFunc(time.Hour, func() { fired.Store(true) })
	w.Stop()
	if w.pending() != 0 {
		t.Fatalf("%d waiters survived Stop", w.pending())
	}
	// New registrations after Stop are dropped, not queued forever.
	w.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	time.Sleep(10 * time.Millisecond)
	if fired.Load() {
		t.Fatal("callback fired after Stop")
	}
}

// TestAtPastDeadlineFiresOnDispatcher: At never runs its callback on
// the caller, not even for a deadline already past; the dispatcher runs
// it on its next pass.
func TestAtPastDeadlineFiresOnDispatcher(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	returned := make(chan struct{})
	fired := make(chan struct{})
	w.At(time.Now().Add(-time.Second), func() {
		select {
		case <-returned:
		case <-time.After(time.Second):
			t.Error("At ran its callback before returning to the caller")
		}
		close(fired)
	})
	close(returned)
	<-fired
}

// TestSleepAllocations pins what one Sleep costs the whole process,
// dispatcher included: the done channel and the callback closure. The
// waiter is a value in the heap, and the dispatcher's own waits allocate
// nothing: a precise wait takes slices, however many, and the
// runtime-timer ranges (below preciseFloor, beyond preciseLead) re-arm
// the wheel's one timer. So At with a callback built once allocates
// nothing at all once the heap has grown.
func TestSleepAllocations(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	for _, tc := range []struct {
		d    time.Duration
		want float64
	}{
		{2 * preciseLead, 2},  // runtime timer, then slices
		{preciseFloor / 2, 2}, // runtime timer alone
		{preciseSlice / 2, 2}, // one slice
		{4 * preciseSlice, 2}, // several slices
	} {
		if got := testing.AllocsPerRun(20, func() { w.Sleep(tc.d) }); got > tc.want {
			t.Errorf("Sleep(%v) allocates %v times, want at most %v", tc.d, got, tc.want)
		}
	}
	fired := make(chan struct{}, 1)
	fire := func() { fired <- struct{}{} }
	at := func() {
		w.At(time.Now().Add(preciseFloor), fire)
		<-fired
	}
	at() // the heap grows to its one slot here
	if got := testing.AllocsPerRun(20, at); got != 0 {
		t.Errorf("At with a prebuilt callback allocates %v times, want 0", got)
	}
}
