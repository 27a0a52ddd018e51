package vtime

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ams/internal/leaktest"
)

// The tests in this file assert how late the wheel wakes, which only the
// hrtimer-backed preciseSleep of wheel_linux.go promises. They judge
// medians over many trials, not maxima: a shared host delays single
// wake-ups by milliseconds now and then.

func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// spinFor busy-waits, so the test's own pause does not depend on the
// timer it is testing. Only the test spins; the wheel never does.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestSubMillisecondSleepIsPrecise: on an otherwise idle process a
// 200 µs sleep wakes well inside the millisecond that the Go idle
// poller's epoll_wait would round it up to (≈900 µs late through a
// runtime timer; ≈70 µs through nanosleep).
func TestSubMillisecondSleepIsPrecise(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	const d = 200 * time.Microsecond
	over := make([]time.Duration, 200)
	for i := range over {
		start := time.Now()
		w.Sleep(d)
		over[i] = time.Since(start) - d
		if over[i] < 0 {
			t.Fatalf("sleep %d returned %v early", i, -over[i])
		}
	}
	if m := median(over); m >= 300*time.Microsecond {
		t.Fatalf("median overshoot of %d × Sleep(%v) is %v, want < 300µs", len(over), d, m)
	}
}

// TestEarlierPushPreemptsPreciseWait: the dispatcher does not listen on
// its wake channel while it is inside nanosleep, so a waiter pushed
// ahead of the one it is waiting for is noticed when the current slice
// ends — it must still fire first, and within one slice of its deadline.
func TestEarlierPushPreemptsPreciseWait(t *testing.T) {
	const trials = 31
	late := make([]time.Duration, trials)
	for i := range late {
		w := NewWheel()
		order := make(chan string, 2)
		w.AfterFunc(preciseLead, func() { order <- "later" })
		spinFor(100 * time.Microsecond) // the dispatcher is inside a slice by now
		const d = 100 * time.Microsecond
		var fired time.Time
		deadline := time.Now().Add(d)
		w.AfterFunc(d, func() { fired = time.Now(); order <- "earlier" })
		if first := <-order; first != "earlier" {
			t.Fatalf("trial %d: the %s waiter fired first", i, first)
		}
		<-order
		w.Stop()
		if late[i] = fired.Sub(deadline); late[i] < 0 {
			t.Fatalf("trial %d: fired %v early", i, -late[i])
		}
	}
	if m := median(late); m >= preciseSlice+150*time.Microsecond {
		t.Fatalf("median lateness of the earlier waiter is %v, want within a slice (%v) plus nanosleep's overshoot",
			m, preciseSlice)
	}
}

// TestStopDuringPreciseWait: Stop is also noticed at the end of the
// slice in progress — the dispatcher goroutine is gone long before the
// deadline it was sleeping towards, and that waiter never fires.
func TestStopDuringPreciseWait(t *testing.T) {
	if leaked := leaktest.Check(time.Second); leaked != "" {
		t.Fatalf("goroutines of earlier tests still running:\n%s", leaked)
	}
	const trials = 31
	var fired atomic.Int64
	exit := make([]time.Duration, trials)
	for i := range exit {
		before := runtime.NumGoroutine()
		w := NewWheel()
		w.AfterFunc(preciseLead, func() { fired.Add(1) })
		spinFor(300 * time.Microsecond) // a slice or two into the wait
		if w.pending() != 1 {
			t.Fatalf("trial %d: waiter fired %v into a %v wait", i, 300*time.Microsecond, preciseLead)
		}
		w.Stop()
		stopped := time.Now()
		for runtime.NumGoroutine() > before {
			if time.Since(stopped) > time.Second {
				t.Fatalf("trial %d: dispatcher still running 1s after Stop:\n%s", i, leaktest.Check(0))
			}
		}
		exit[i] = time.Since(stopped)
	}
	if m := median(exit); m >= preciseSlice+150*time.Microsecond {
		t.Fatalf("median time from Stop to dispatcher exit is %v, want within a slice (%v) plus nanosleep's overshoot",
			m, preciseSlice)
	}
	spinFor(preciseLead)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Stop", n)
	}
	if leaked := leaktest.Check(time.Second); leaked != "" {
		t.Fatalf("dispatchers outlived Stop:\n%s", leaked)
	}
}
