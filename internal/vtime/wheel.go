// Package vtime provides the timer wheel that paces simulated model
// executions in the serving layer. The real server sleeps each model's
// nominal duration scaled by the configured TimeScale, and a batch lane
// holds its requests for a scaled MaxHoldMS; every such pause is one
// waiter on a Wheel: a min-heap of deadlines and one dispatcher
// goroutine that fires whatever is due and then waits for the earliest
// deadline left (AfterFunc and Sleep take a duration, At a deadline).
// Expirations that land on the same instant are fired in
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
//     P fires a due timer within a microsecond. Chained deadlines (At,
//     below) land here too, when the wake that armed them was late.
//   - up to preciseLead (2 ms): nanosleep, in slices of at most
//     preciseSlice (100 µs). The dispatcher cannot be woken inside a
//     slice, so an earlier deadline pushed meanwhile, or Stop, is acted
//     on when the slice ends; the slice length bounds that delay, and
//     how long the dispatcher's P sits in a syscall.
//   - beyond preciseLead: the runtime timer armed preciseLead short of
//     the deadline (it may fire a millisecond late), and the rest on the
//     precise path.
//
// The two runtime-timer ranges share one timer per wheel, re-armed for
// each wait, so no wait allocates.
//
// Every wake-up is late, so a timeline built from wake-ups drifts: a
// callback that arms its successor with AfterFunc(d) times it from its
// own late wake, and each link adds the overshoot again. At takes an
// absolute deadline instead. A chain that arms each link At(previous
// deadline + d) stays on its nominal timeline: each link still wakes
// ≈70 µs late, but the lateness no longer adds up. At never runs its
// callback on the caller, even for a deadline already past, so such a
// chain cannot recurse.
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
	"sync"
	"time"
)

// waiter is one pending expiration.
type waiter struct {
	at  time.Time
	seq uint64 // insertion order; breaks same-instant ties deterministically
	fn  func()
}

// waiterHeap is a binary min-heap of waiters by value, ordered by
// deadline, then insertion order. Holding values, not pointers, is what
// lets At allocate nothing once the slice has grown.
type waiterHeap []waiter

func (h waiterHeap) less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

// push adds w and sifts it up to its place.
func (h *waiterHeap) push(w waiter) {
	*h = append(*h, w)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest waiter: the last one takes the
// root and sifts down. The vacated slot is zeroed so it does not pin a
// callback until it is reused.
func (h *waiterHeap) pop() waiter {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q[n] = waiter{}
	q = q[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && q.less(l, least) {
			least = l
		}
		if r := l + 1; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
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
	w.At(time.Now().Add(d), fn)
}

// At schedules fn to run on the dispatcher goroutine once the clock
// reaches deadline. Unlike AfterFunc it never runs fn on the caller: a
// deadline already past fires on the dispatcher's next pass, so a
// callback that chains its successor through At — the batch lanes time
// each batch from its predecessor's deadline, which the dispatcher
// reaches late — returns before that successor runs, and a chain of any
// length neither recurses nor grows the stack. Ordering, precision and
// Stop are as for AfterFunc.
func (w *Wheel) At(deadline time.Time, fn func()) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.waiters.push(waiter{at: deadline, seq: w.seq, fn: fn})
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
// or At (the batch lanes' hold timers and chained batches do). The clock
// is re-read after every wait, however it ended, and only waiters whose
// deadline that reading has reached are fired: nothing fires early. The
// runtime-timer ranges share one timer, re-armed with Reset: a fresh
// time.NewTimer per wait cost three allocations, and chained deadlines
// land under preciseFloor often. (Since Go 1.23 Stop and Reset leave no
// stale tick in the channel, so the timer needs no draining.)
func (w *Wheel) dispatch() {
	var due []func()   // reused across passes
	var tm *time.Timer // the runtime timer, made at its first use
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		now := time.Now()
		for len(w.waiters) > 0 && !w.waiters[0].at.After(now) {
			due = append(due, w.waiters.pop().fn)
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
			if tm == nil {
				tm = time.NewTimer(wait)
			} else {
				tm.Reset(wait)
			}
			select {
			case <-tm.C:
			case <-w.wake:
				tm.Stop()
			}
		}
	}
}
