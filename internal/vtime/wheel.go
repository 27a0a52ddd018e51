// Package vtime provides the timer wheel that paces simulated model
// executions in the serving layer. The real server sleeps each model's
// nominal duration scaled by the configured TimeScale, and a batch lane
// holds its requests for a scaled MaxHoldMS; every such pause is one
// waiter on a Wheel: a min-heap of deadlines and one dispatcher
// goroutine that fires whatever is due and then waits for the earliest
// deadline left. Expirations that land on the same instant are fired in
// one wake-up, and no sleeper owns a timer of its own — which is what
// keeps small TimeScale values (thousands of sub-millisecond sleeps per
// simulated second) from drowning the runtime in timer churn.
//
// How the dispatcher waits decides how late everything wakes. A Go
// runtime timer is only as precise as the scheduler that polls it: when
// every P is idle the runtime parks in epoll_wait, whose timeout is in
// whole milliseconds (runtime/netpoll_epoll.go rounds any delay under
// 1 ms up to 1), so on a sleep-bound server a time.NewTimer(100 µs)
// fires ≈1 ms late. At TimeScale 1e-3 the server asks for 20–500 µs per
// model, and that rounding, not this program, set its throughput.
// nanosleep(2) is timed by a kernel hrtimer instead and wakes ≈70 µs
// late (the thread's 50 µs timer slack plus the wake-up), whatever the
// Go scheduler is doing. The dispatcher therefore waits in three ranges:
//
//   - under preciseFloor (10 µs): the runtime timer. nanosleep's fixed
//     ≈70 µs would dwarf the wait, and a server asking for waits this
//     short (TimeScale 1e-6) is CPU-bound: its Ps are busy, and a busy
//     P fires a due timer within a microsecond.
//   - up to preciseLead (2 ms): nanosleep, in slices of at most
//     preciseSlice (100 µs). The dispatcher cannot be woken inside a
//     slice, so an earlier deadline pushed meanwhile, or Stop, is acted
//     on when the slice ends; the slice length bounds that delay, and
//     how long the dispatcher's P sits in a syscall.
//   - beyond preciseLead: the runtime timer armed preciseLead short of
//     the deadline (it may fire a millisecond late), and the rest on the
//     precise path.
//
// There is no spin in any range. Spinning to the deadline would buy the
// last ≈70 µs at the price of a core, and the server's workers need the
// cores: the precise path costs one syscall per slice.
// nanosleep returns early with EINTR whenever a signal arrives (Go
// pre-empts with SIGURG), so the loop trusts no wait: it re-reads the
// clock after every return and fires only what that reading has
// reached. Off Linux (wheel_other.go) preciseSleep is time.Sleep and
// the wheel is as precise as the platform's runtime timer.
package vtime

import (
	"container/heap"
	"sync"
	"time"
)

// waiter is one pending expiration.
type waiter struct {
	at  time.Time
	seq uint64 // insertion order; breaks same-instant ties deterministically
	fn  func()
}

// waiterHeap orders waiters by deadline, then insertion order.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Wheel is a shared timer: many concurrent sleepers, one dispatcher
// goroutine, one wait in progress. Create one with NewWheel and release
// its dispatcher with Stop once every sleeper has returned.
type Wheel struct {
	mu      sync.Mutex
	waiters waiterHeap
	seq     uint64
	wake    chan struct{} // capacity 1: "heap front may have changed"
	stopped bool
}

// NewWheel starts a wheel and its dispatcher goroutine.
func NewWheel() *Wheel {
	w := &Wheel{wake: make(chan struct{}, 1)}
	go w.dispatch()
	return w
}

// AfterFunc schedules fn to run on the dispatcher goroutine once d has
// elapsed; a non-positive d runs fn synchronously. fn never runs before
// its deadline, callbacks run in deadline order (same-instant ones in
// the order they were scheduled), and how long after its deadline fn
// runs is the precision Sleep documents. Callbacks must be short (close
// a channel, flip a flag under a lock) — a slow callback delays every
// later expiration. There is no cancellation: callers that may outlive
// their interest guard the callback body themselves (the batch lanes
// do, with a generation counter). After Stop, pending and new callbacks
// are dropped.
func (w *Wheel) AfterFunc(d time.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	heap.Push(&w.waiters, &waiter{at: time.Now().Add(d), seq: w.seq, fn: fn})
	w.seq++
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// Sleep blocks the caller for at least d. On Linux a sleep of
// preciseFloor (10 µs) or more returns about 70 µs late — up to a slice
// (100 µs) more when it was asked for while the dispatcher was already
// waiting for a later deadline — whether the process is idle or busy. A
// shorter sleep, and any sleep on another platform, is as late as a
// runtime timer: microseconds in a busy process, a millisecond in an
// idle one. It must not be called after Stop (the expiration would be
// dropped and the caller would block forever) — the server guarantees
// that by stopping the wheel only after its worker pool has drained.
func (w *Wheel) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	w.AfterFunc(d, func() { close(done) })
	<-done
}

// Stop drops any pending expirations and tells the dispatcher to exit,
// which it does at once, or at the end of the nanosleep slice it is in.
func (w *Wheel) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.waiters = nil
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// pending returns the number of waiting expirations (for tests).
func (w *Wheel) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.waiters)
}

// The bounds of the dispatcher's three wait ranges; the package comment
// says why there are three.
const (
	// preciseFloor is the shortest wait given to nanosleep, whose fixed
	// ≈70 µs overshoot would dwarf anything much shorter.
	preciseFloor = 10 * time.Microsecond
	// preciseLead is the longest, and how far short of a more distant
	// deadline the runtime timer is armed: twice the millisecond it may
	// fire late by.
	preciseLead = 2 * time.Millisecond
	// preciseSlice bounds one nanosleep, and with it how long an earlier
	// push or Stop waits for the dispatcher to notice it. Workers push
	// short sleeps while the dispatcher waits out a longer one all the
	// time, so this delay is paid often: on the batched hot-model trace
	// slices of 500/250/150/100/50 µs served 1.0/1.7/2.5/2.9/3.1 k
	// items/s. Below nanosleep's own ≈70 µs overshoot a shorter slice
	// buys little and costs a syscall each (a prototype that parked in a
	// futex the pushers woke did no better than 100 µs).
	preciseSlice = 100 * time.Microsecond
)

// dispatch pops due expirations and waits for the next deadline.
// Callbacks run outside the wheel lock, so they may re-enter AfterFunc
// (the batch lanes' hold timers do). The clock is re-read after every
// wait, however it ended, and only waiters whose deadline that reading
// has reached are fired: nothing fires early.
func (w *Wheel) dispatch() {
	var due []func() // reused across passes
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		now := time.Now()
		for len(w.waiters) > 0 && !w.waiters[0].at.After(now) {
			due = append(due, heap.Pop(&w.waiters).(*waiter).fn)
		}
		wait := time.Duration(-1)
		if len(w.waiters) > 0 {
			wait = w.waiters[0].at.Sub(now)
		}
		w.mu.Unlock()
		if len(due) > 0 {
			for i, fn := range due {
				fn()
				due[i] = nil // do not pin the closure until the slot is reused
			}
			due = due[:0]
			continue // new expirations may already be due
		}
		switch {
		case wait < 0:
			<-w.wake // idle: block until a waiter arrives or Stop
		case wait >= preciseFloor && wait <= preciseLead:
			// Not listening on wake here: an earlier push or Stop is seen
			// when the slice ends and the loop re-reads the heap.
			preciseSleep(min(wait, preciseSlice))
			select {
			case <-w.wake: // already acted on by the re-read
			default:
			}
		default:
			if wait > preciseLead {
				wait -= preciseLead
			}
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-w.wake:
				t.Stop()
			}
		}
	}
}
