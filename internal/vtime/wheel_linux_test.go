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
//
// A trial spins 100 µs into the later waiter's 2 ms wait before the push.
// When the host deschedules the spin past that deadline, the later
// waiter has already fired and the trial measured the host, not the
// wheel: it is retried. Out-of-order or early firing fails the test, as
// do retries in more than half the trials.
func TestEarlierPushPreemptsPreciseWait(t *testing.T) {
	const trials = 31
	late := make([]time.Duration, 0, trials)
	retries := 0
	for i := 0; len(late) < trials; i++ {
		w := NewWheel()
		order := make(chan string, 2)
		w.AfterFunc(preciseLead, func() { order <- "later" })
		spinFor(100 * time.Microsecond) // the dispatcher is inside a slice by now
		if w.pending() != 1 {
			<-order
			w.Stop()
			if retries++; retries > trials/2 {
				t.Fatalf("%d of %d trials spun past the later waiter's deadline: the host is too loaded to measure preemption", retries, i+1)
			}
			continue
		}
		const d = 100 * time.Microsecond
		var fired time.Time
		deadline := time.Now().Add(d)
		w.AfterFunc(d, func() { fired = time.Now(); order <- "earlier" })
		if first := <-order; first != "earlier" {
			t.Fatalf("trial %d: the %s waiter fired first", i, first)
		}
		<-order
		w.Stop()
		lateness := fired.Sub(deadline)
		if lateness < 0 {
			t.Fatalf("trial %d: fired %v early", i, -lateness)
		}
		late = append(late, lateness)
	}
	if m := median(late); m >= preciseSlice+150*time.Microsecond {
		t.Fatalf("median lateness of the earlier waiter is %v, want within a slice (%v) plus nanosleep's overshoot",
			m, preciseSlice)
	}
	if retries > 0 {
		t.Logf("%d trials retried: the spin overran the later waiter's deadline", retries)
	}
}

// TestStopDuringPreciseWait: Stop is also noticed at the end of the
// slice in progress — the dispatcher goroutine is gone long before the
// deadline it was sleeping towards, and that waiter never fires.
//
// A trial stops the wheel after spinning 300 µs into a 2 ms wait. When
// the host deschedules the spin past the deadline, the waiter has fired
// on time and the trial measured the host, not the wheel: it is retried.
// Only a waiter that fired before its own deadline fails the test, as
// do retries in more than half the trials.
func TestStopDuringPreciseWait(t *testing.T) {
	if leaked := leaktest.Check(time.Second); leaked != "" {
		t.Fatalf("goroutines of earlier tests still running:\n%s", leaked)
	}
	const trials = 31
	var fired atomic.Int64
	retries := 0
	exit := make([]time.Duration, trials)
	for i := 0; i < trials; {
		before := runtime.NumGoroutine()
		w := NewWheel()
		firedAt := make(chan time.Time, 1)
		deadline := time.Now().Add(preciseLead) // no later than the wheel's own
		w.AfterFunc(preciseLead, func() {
			fired.Add(1)
			firedAt <- time.Now()
		})
		spinFor(300 * time.Microsecond) // a slice or two into the wait
		overran := w.pending() != 1
		if overran {
			select {
			case at := <-firedAt:
				if at.Before(deadline) {
					t.Fatalf("trial %d: waiter fired %v before its %v deadline", i, deadline.Sub(at), preciseLead)
				}
			case <-time.After(time.Second):
				t.Fatalf("trial %d: waiter left the wheel without firing", i)
			}
			if retries++; retries > trials/2 {
				t.Fatalf("%d of %d trials spun past the waiter's deadline: the host is too loaded to measure Stop", retries, i+retries)
			}
		}
		w.Stop()
		stopped := time.Now()
		for runtime.NumGoroutine() > before {
			if time.Since(stopped) > time.Second {
				t.Fatalf("trial %d: dispatcher still running 1s after Stop:\n%s", i, leaktest.Check(0))
			}
		}
		if !overran {
			exit[i] = time.Since(stopped)
			i++
		}
	}
	if m := median(exit); m >= preciseSlice+150*time.Microsecond {
		t.Fatalf("median time from Stop to dispatcher exit is %v, want within a slice (%v) plus nanosleep's overshoot",
			m, preciseSlice)
	}
	spinFor(preciseLead)
	if n := fired.Load() - int64(retries); n != 0 {
		t.Fatalf("%d callbacks fired after Stop", n)
	}
	if leaked := leaktest.Check(time.Second); leaked != "" {
		t.Fatalf("dispatchers outlived Stop:\n%s", leaked)
	}
	if retries > 0 {
		t.Logf("%d trials retried: the spin overran the deadline", retries)
	}
}

// TestAtChainKeepsItsTimeline: 200 callbacks, each arming the next
// At(its own deadline + 100 µs), end within 200×100 µs + 2 ms of the
// first deadline. Every link still wakes ≈70 µs late, but a link whose
// deadline has already passed fires on the dispatcher's next pass, so
// the lateness does not add up. The same chain through AfterFunc(100 µs)
// times each link from its predecessor's late wake and takes ≈200×170 µs.
func TestAtChainKeepsItsTimeline(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	const links, d = 200, 100 * time.Microsecond
	span := make([]time.Duration, 5)
	for i := range span {
		first := time.Now().Add(d)
		done := make(chan time.Time)
		var link func(i int, at time.Time) func()
		link = func(i int, at time.Time) func() {
			return func() {
				now := time.Now()
				if now.Before(at) {
					t.Errorf("link %d fired %v early", i, at.Sub(now))
				}
				if i == links-1 {
					done <- now
					return
				}
				next := at.Add(d)
				w.At(next, link(i+1, next))
			}
		}
		w.At(first, link(0, first))
		span[i] = (<-done).Sub(first)
	}
	if m, limit := median(span), links*d+2*time.Millisecond; m > limit {
		t.Fatalf("median %d-link At chain took %v from its first deadline, want within %v", links, m, limit)
	}
}

// TestAtPastRearmDoesNotRecurse: a callback that re-arms itself At(a
// deadline already past) 10 000 times completes on the dispatcher. Each
// re-arm fires on a later pass, not inside the call that armed it, so the
// stack is as deep at the last call as at the first, and nothing fires
// before its deadline.
func TestAtPastRearmDoesNotRecurse(t *testing.T) {
	w := NewWheel()
	defer w.Stop()
	const n = 10000
	pcs := make([]uintptr, 512)
	depth := make([]int, 0, n)
	done := make(chan struct{})
	var rearm func(at time.Time)
	rearm = func(at time.Time) {
		if now := time.Now(); now.Before(at) {
			t.Errorf("call %d fired %v early", len(depth), at.Sub(now))
		}
		depth = append(depth, runtime.Callers(0, pcs))
		if len(depth) == n {
			close(done)
			return
		}
		past := time.Now().Add(-time.Microsecond)
		w.At(past, func() { rearm(past) })
	}
	start := time.Now()
	w.At(start, func() { rearm(start) })
	<-done
	if depth[n-1] != depth[0] {
		t.Fatalf("stack depth %d at the first call, %d at the last: At recursed", depth[0], depth[n-1])
	}
}
