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

// TestSleepAllocations pins what one Sleep costs the whole process,
// dispatcher included: the done channel, the callback closure and the
// waiter — and, only where the dispatcher arms a runtime timer (below
// preciseFloor, beyond preciseLead), that timer's three. A precise wait
// allocates nothing, however many slices it takes.
func TestSleepAllocations(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	for _, tc := range []struct {
		d    time.Duration
		want float64
	}{
		{preciseSlice / 2, 3},    // one slice
		{4 * preciseSlice, 3},    // several slices
		{2 * preciseLead, 3 + 3}, // runtime timer, then slices
	} {
		if got := testing.AllocsPerRun(20, func() { w.Sleep(tc.d) }); got > tc.want {
			t.Errorf("Sleep(%v) allocates %v times, want at most %v", tc.d, got, tc.want)
		}
	}
}
