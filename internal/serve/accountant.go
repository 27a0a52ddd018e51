package serve

import (
	"fmt"
	"sync"
	"time"

	"ams/internal/obs"
)

// accountant is the shared GPU-memory budget of Algorithm 2, lifted from
// a per-item schedule to the whole server: every execution must hold its
// model's peak footprint while it runs, so the sum of in-flight
// footprints never exceeds the budget no matter how many workers run
// concurrently. It hands memory out two ways.
//
// A worker that executes its own models calls reserve, which blocks until
// the footprint fits right now, and Release. reserve (and awaitMore, the
// stall of a declined ask) ignores the grant line below on purpose: their
// callers may already hold reservations, and a strict line would deadlock
// Algorithm 2. Say X holds 4 of 10 MB and waits, in line, for 5; Z holds
// 3 and asks for 2, which fit now, but queues behind X. Neither can reach
// the commit that would release what it holds. Fits-now never deadlocks:
// the globally last reserver is never blocked (see machine.Start).
//
// A batch lane, which holds nothing until its batch runs, calls Grant: an
// ordered line. A grant that fits while nobody is queued runs its
// callback at once; otherwise it joins the back of a FIFO line that
// Release serves strictly from the head, so a large footprint is never
// passed over by smaller ones that arrived after it. Queued grants and
// blocked reservations both count as waits. The accountant is the
// batcher's batch.Memory.
//
// A grant's callback receives the instant its claim counts from. A
// release carries the instant its memory was freed — a batch's nominal
// end, which the timer wheel reaches some 70 µs late — and a grant it
// serves starts at the later of that instant and the one the grant
// queued at: on the freeing batch's timeline, but never before it asked.
//
// A claim above the whole budget could never be served, so reserve and
// Grant panic on it, as claim does on an over-commit: a contract
// violation, not a stall. No caller can drop a refusal. The server never
// makes such a claim: the executor panics, naming the policy, on a
// selection above the headroom it handed out, and that headroom is at
// most the budget.
type accountant struct {
	mu       sync.Mutex
	cond     *sync.Cond // reserve/awaitMore waiters
	budgetMB float64
	usedMB   float64
	peakMB   float64
	claims   int         // claims not yet released: 0 means nothing runs
	waits    int64       // reservations and grants that had to wait
	line     []grantWait // queued grants, head first
	lineHead int         // line[lineHead:] is the live line

	// waitHist, when non-nil, receives the real seconds each blocked
	// reservation, queued grant (or selection retry) spent waiting — the
	// server's memory-stall latency. Set once at construction, before any
	// worker runs.
	waitHist *obs.Histogram
}

// grantWait is one queued grant.
type grantWait struct {
	mb     float64
	fn     func(at time.Time)
	queued time.Time // when the grant joined the line: it starts no earlier
}

func newAccountant(budgetMB float64) *accountant {
	a := &accountant{budgetMB: budgetMB}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// fits reports whether mb more megabytes fit the budget now. Called
// with mu held.
func (a *accountant) fits(mb float64) bool {
	return a.usedMB+mb <= a.budgetMB+1e-9
}

// claim books mb megabytes. Called with mu held, after fits.
func (a *accountant) claim(mb float64) {
	a.claims++
	a.usedMB += mb
	if a.usedMB > a.peakMB {
		a.peakMB = a.usedMB
	}
	if a.usedMB > a.budgetMB+1e-9 {
		panic(fmt.Sprintf("serve: memory accountant over-committed: %v MB in use, budget %v MB",
			a.usedMB, a.budgetMB))
	}
}

// mustFit panics when mb exceeds the whole budget. It reads only the
// budget, which never changes, so it runs before mu is taken: Grant
// unlocks by hand, and a panic under the lock would leave it held.
func (a *accountant) mustFit(mb float64) {
	if mb > a.budgetMB+1e-9 {
		panic(fmt.Sprintf("serve: memory claim of %v MB exceeds the whole budget of %v MB", mb, a.budgetMB))
	}
}

// reserve blocks until mb megabytes are available and claims them.
func (a *accountant) reserve(mb float64) {
	a.mustFit(mb)
	a.mu.Lock()
	defer a.mu.Unlock()
	waited := false
	var t0 time.Time
	for !a.fits(mb) {
		if !waited {
			waited = true
			a.waits++
			t0 = obs.Started(a.waitHist)
		}
		a.cond.Wait()
	}
	a.waitHist.ObserveSince(t0) // no-op unless the reservation blocked
	a.claim(mb)
}

// Grant claims mb megabytes for fn, in line order, and runs fn once they
// are claimed: at once on the caller when nobody is queued and mb fits,
// otherwise on the goroutine whose Release frees enough for it. fn gets
// the instant the claim starts: now when it ran at once, otherwise as
// Release says. fn owns the claim and must release it.
func (a *accountant) Grant(mb float64, fn func(at time.Time)) {
	a.mustFit(mb)
	a.mu.Lock()
	now := time.Now()
	if a.lineHead == len(a.line) && a.fits(mb) { // nobody queued
		a.claim(mb)
		a.mu.Unlock()
		fn(now)
		return
	}
	a.waits++
	a.line = append(a.line, grantWait{mb: mb, fn: fn, queued: now})
	a.mu.Unlock()
}

// Release returns a reservation to the pool, serves the grant line from
// its head while the head fits — running those callbacks, in line
// order, on the caller after unlocking — and wakes blocked reservers.
// at is the instant the memory was freed (zero: now).
func (a *accountant) Release(mb float64, at time.Time) {
	a.mu.Lock()
	a.claims--
	a.usedMB -= mb
	if a.usedMB < -1e-9 {
		panic(fmt.Sprintf("serve: memory accountant released more than reserved (%v MB in use)", a.usedMB))
	}
	// One release usually serves at most one grant; only further ones
	// allocate.
	var first grantWait
	var more []grantWait
	for a.lineHead < len(a.line) && a.fits(a.line[a.lineHead].mb) {
		g := a.line[a.lineHead]
		a.line[a.lineHead] = grantWait{} // do not pin the callback
		a.lineHead++
		a.claim(g.mb)
		if first.fn == nil {
			first = g
		} else {
			more = append(more, g)
		}
	}
	if a.lineHead > 0 && 2*a.lineHead >= len(a.line) {
		// Compact, so a line that never empties does not grow forever.
		n := copy(a.line, a.line[a.lineHead:])
		clear(a.line[n:])
		a.line, a.lineHead = a.line[:n], 0
	}
	a.mu.Unlock()
	a.cond.Broadcast()
	if first.fn == nil {
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	a.start(first, at)
	for _, g := range more {
		a.start(g, at)
	}
}

// start runs a grant that Release served, from the later of at (the
// instant the memory was freed) and the instant the grant queued.
func (a *accountant) start(g grantWait, at time.Time) {
	a.waitHist.ObserveSince(g.queued)
	if g.queued.After(at) {
		at = g.queued
	}
	g.fn(at)
}

// available returns the megabytes a reservation could claim right now.
// This is the live availability fed into policies as
// sim.Constraints.AvailMemMB on a server whose workers reserve for
// themselves, so a policy only ever selects models that fit the current
// headroom.
func (a *accountant) available() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budgetMB - a.usedMB
}

// awaitMore blocks until the available memory differs from what the
// caller last observed, returning true to ask the policy again. While it
// does not differ, awaitMore returns false, before waiting or after any
// wake, once no claim is outstanding: nothing is running, so no release
// will ever raise the availability (not even when a release gave back
// less than its claim) and a policy that declined has genuinely finished
// its schedule. The caller holds no claim of its own: it has nothing in
// flight.
func (a *accountant) awaitMore(observedMB float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	waited := false
	var t0 time.Time
	for a.budgetMB-a.usedMB <= observedMB+1e-9 {
		if a.claims == 0 {
			return false
		}
		if !waited {
			waited = true
			a.waits++
			t0 = obs.Started(a.waitHist)
		}
		a.cond.Wait()
	}
	a.waitHist.ObserveSince(t0) // no-op unless the retry blocked
	return true
}

// peak returns the maximum simultaneous reservation observed.
func (a *accountant) peak() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peakMB
}

// inUse returns the currently reserved megabytes.
func (a *accountant) inUse() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usedMB
}

// waitCount returns how many reservations and grants had to wait.
func (a *accountant) waitCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waits
}
