// Package batch implements cross-item dynamic batching for the serving
// layer: the raw-speed lever of real GPU serving that the paper's
// one-item-at-a-time formulation never had. Each model gets a lane;
// workers enqueue their items' pending requests for a model into its
// lane, and the batcher coalesces the lane's demand into one batched
// execution whose simulated cost is sub-linear in the batch size
// (zoo.Model.BatchCostMS: a fixed launch overhead plus a small per-item
// marginal).
//
// Memory coalescing is where batching buys the server throughput under a
// GPU budget: a model's weights are resident once no matter how many
// items its batch serves, so a batch whose requests own their footprint
// holds the model's MemMB once — not once per request — against the
// shared accountant. When such a lane seals decides how much the budget
// buys. An owned lane asks the Memory for a grant at its first
// request and keeps accepting requests while the grant waits in the
// accountant's line behind running batches; the moment the grant
// arrives the lane seals at most MaxBatch requests and starts them (the
// adaptive batching of Clipper and Clockwork: grow while the executor is
// busy, start the moment it frees). Leftovers ask again at the back of
// the line. A held grant is never idle, and no request waits on a timer
// while the budget sits free.
//
// "The moment it frees" is an instant on the batches' own timeline, not
// the moment the wheel's dispatcher notices, which is some 70 µs later.
// A batch ends at its start plus its scaled cost, and its release
// carries that end; the grant it serves starts there (or when that grant
// queued, if later), so a chain of batches serialized by the budget runs
// back to back instead of adding each wake-up's lateness. The timeline
// is causal: a grant seals only the requests enqueued by its instant,
// so no request rides a batch that started before the request arrived.
// The rest ask again. For that, every owned request is stamped with the
// clock when it is enqueued.
//
// A lane with no owned request (no budget, or the parallel path whose
// items hold their own reservations) has nothing to wait for, so it
// bounds how long a lone request can wait for batch-mates instead: it
// seals when it reaches Config.MaxBatch requests, or when the oldest
// request has waited Config.MaxHoldMS on the simulated clock, whichever
// comes first — so a cold model's single request is delayed by at most
// the hold, never starved. Such a batch starts when it seals.
//
// Every sealed batch runs as one callback on the shared timer wheel,
// which releases the grant (serving the next one in line), fills the
// waiters' BatchRefs and wakes them. The package starts no goroutine of
// its own. With MaxBatch = 1 every batch holds one request and the
// runtime reproduces the unbatched claim → sleep → release sequence.
//
// Each request's done channel is signalled exactly once, when its batch
// ends: by a send when the channel is buffered — it must be empty, so
// the send never blocks the wheel's dispatcher, and a worker can reuse
// one capacity-1 channel for every request it makes — and by a close
// otherwise. In steady state the runtime allocates nothing per request
// and nothing per batch: a lane compacts its pending requests in place,
// sealed batches come from the lane's own free list with their wheel
// callback built once, and a hold timer is a prebuilt callback that
// reads the generation it was armed for from the lane.
package batch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ams/internal/obs"
	"ams/internal/vtime"
	"ams/internal/zoo"
)

// Memory is the ordered grant contract the batcher drives — implemented
// by the server's shared accountant. Grant claims mb megabytes in line
// order and runs fn once they are claimed: possibly at once on the
// caller, otherwise on whichever goroutine's Release freed enough. fn
// receives the instant the claim starts: the caller's now when it ran at
// once; otherwise the later of the instant the grant queued and the at
// of the Release that served it. fn owns the claim and the batcher
// releases it when the batch's execution ends, passing the batch's
// nominal end as at. mb never exceeds the whole budget: a Memory panics
// on such a claim, since it could never be served. A nil Memory disables
// the footprint (no budget configured).
type Memory interface {
	Grant(mb float64, fn func(at time.Time))
	Release(mb float64, at time.Time)
}

// Config parameterizes the coalescing runtime.
type Config struct {
	// MaxBatch caps a batch at this many requests (>= 1). One means every
	// request executes alone — the unbatched cost model through the
	// batching machinery.
	MaxBatch int
	// MaxHoldMS bounds, on the simulated clock, how long a lane with no
	// owned request holds its oldest one waiting for batch-mates before
	// flushing. Zero flushes immediately: such batches form only at
	// MaxBatch. An owned lane ignores it: it seals at its grant.
	MaxHoldMS float64
	// TimeScale converts simulated milliseconds to real ones (the
	// server's Config.TimeScale).
	TimeScale float64
	// Metrics, when non-nil, receives batch-size and hold-span
	// observations. Nil disables instrumentation entirely.
	Metrics *Metrics
}

// Stats counts the runtime's activity. SavedGPUMS is the simulated GPU
// time batching avoided versus unbatched execution — for a batch of n,
// n*TimeMS - BatchCostMS(n) = (n-1)*BatchLaunchMS. SavedMemMB sums the
// footprint claims coalesced away: (k-1)*MemMB for a batch with k
// footprint-owning requests.
type Stats struct {
	Batches      int64
	Requests     int64
	LargestBatch int
	SizeFlushes  int64 // batches sealed by reaching MaxBatch
	HoldFlushes  int64 // batches sealed by the hold timer (or zero hold)
	GrantFlushes int64 // owned batches sealed when their memory grant arrived
	SavedGPUMS   float64
	SavedMemMB   float64
}

// Add folds another batcher's counts into s: sums, and the larger of
// the two largest batches.
func (s *Stats) Add(o Stats) {
	s.Batches += o.Batches
	s.Requests += o.Requests
	s.LargestBatch = max(s.LargestBatch, o.LargestBatch)
	s.SizeFlushes += o.SizeFlushes
	s.HoldFlushes += o.HoldFlushes
	s.GrantFlushes += o.GrantFlushes
	s.SavedGPUMS += o.SavedGPUMS
	s.SavedMemMB += o.SavedMemMB
}

// Flush causes, as BatchRef.Flush and the ams_batch_flush_total label
// report them.
const (
	flushSize  = "size"
	flushHold  = "hold"
	flushGrant = "grant"
)

// request is one item's pending demand for a model.
type request struct {
	done  chan struct{}
	owned bool          // the batch holds the model footprint for it
	at    time.Time     // enqueue stamp of an owned request (zero otherwise)
	ref   *obs.BatchRef // fan-in telemetry handoff; nil when the waiter isn't tracing
}

// lane collects one model's pending requests until a flush seals them.
type lane struct {
	mu        sync.Mutex
	gen       uint64 // bumped at each seal; stale hold timers check it
	reqs      []request
	queued    atomic.Int64    // lock-free mirror of len(reqs) for Queued
	heldSince time.Time       // wall stamp of the oldest unsealed request (metrics only)
	asked     bool            // a grant is outstanding: the lane seals when it arrives
	onGrant   func(time.Time) // the grant callback, built once so asking allocates nothing
	onHold    func()          // the hold timer's callback, built once likewise
	// holds are the generations of the armed hold timers, oldest first.
	// Every timer waits the same scaled hold from a stamp taken under the
	// lane lock, so the wheel fires them in the order they were armed,
	// and each firing takes the front.
	holds []uint64
	free  []*batch // finished batches, reused by seal
}

// batch is one sealed batch on its way to the wheel. It belongs to its
// lane's free list between executions: seal takes it, finish returns it.
type batch struct {
	m     int
	reqs  []request
	flush string
	memMB float64   // footprint the batch's grant claimed; released at the end
	start time.Time // nominal start: the grant's instant, or the seal's
	end   time.Time // nominal end: start plus the scaled batched cost
	fire  func()    // the wheel callback that finishes this batch, built once
}

// Batcher is the coalescing runtime. Create one with New; it shares the
// server's timer wheel and stops with it (no goroutines of its own).
type Batcher struct {
	models []*zoo.Model
	cfg    Config
	mem    Memory
	wheel  *vtime.Wheel
	lanes  []lane

	statMu sync.Mutex
	stats  Stats
}

// New builds a batcher over the model registry. Configuration errors are
// panics: the batcher is internal machinery and the server validates its
// user-facing knobs before building one.
func New(models []*zoo.Model, mem Memory, wheel *vtime.Wheel, cfg Config) *Batcher {
	if cfg.MaxBatch < 1 {
		panic(fmt.Sprintf("batch: max batch %d < 1", cfg.MaxBatch))
	}
	if cfg.MaxHoldMS < 0 {
		panic(fmt.Sprintf("batch: negative hold %v ms", cfg.MaxHoldMS))
	}
	if cfg.TimeScale <= 0 {
		panic(fmt.Sprintf("batch: non-positive time scale %v", cfg.TimeScale))
	}
	if wheel == nil {
		panic("batch: nil timer wheel")
	}
	b := &Batcher{models: models, cfg: cfg, mem: mem, wheel: wheel, lanes: make([]lane, len(models))}
	for m := range b.lanes {
		b.lanes[m].onGrant = func(at time.Time) { b.granted(m, at) }
		b.lanes[m].onHold = func() { b.held(m) }
	}
	return b
}

// Enqueue registers one request for model m and returns immediately;
// done is signalled exactly once when the batched execution containing
// the request completes: by a send when done is buffered (it must be
// empty, and nothing else may send on it before the signal is
// received), by a close otherwise. owned asks the batch to hold the
// model's footprint against the Memory on the request's behalf (the
// serial path); a non-owned request's caller keeps its own reservation
// (the parallel path, whose coordinator releases at commit) and the
// batch only shares the execution. ref, when non-nil, is filled with the batch's fan-in
// identity (id, size, nominal start, flush cause) before done is
// signalled, so a tracing waiter can record its batch-hold and exec
// spans.
func (b *Batcher) Enqueue(m int, owned bool, done chan struct{}, ref *obs.BatchRef) {
	ln := &b.lanes[m]
	ln.mu.Lock()
	r := request{done: done, owned: owned, ref: ref}
	if owned && b.mem != nil {
		// Stamped under the lane lock, so the stamps rise along the lane
		// and a grant's causal prefix is a prefix.
		r.at = time.Now()
	}
	ln.reqs = append(ln.reqs, r)
	ln.queued.Add(1)
	if len(ln.reqs) == 1 {
		ln.heldSince = b.cfg.Metrics.holdStart()
	}
	var sealed *batch
	ask := false
	switch {
	case ln.asked:
		// The lane seals when its grant arrives; the request rides along
		// if it is in time for the grant's instant.
	case owned && b.mem != nil:
		ln.asked, ask = true, true
	case len(ln.reqs) >= b.cfg.MaxBatch:
		sealed = b.seal(m, len(ln.reqs), flushSize)
	case b.cfg.MaxHoldMS <= 0:
		sealed = b.seal(m, len(ln.reqs), flushHold)
	case len(ln.reqs) == 1:
		// First request of a fresh batch: arm the lane's hold timer. At,
		// unlike AfterFunc, never runs the timer here, under the lane
		// lock, when the hold scales below a nanosecond.
		ln.holds = append(ln.holds, ln.gen)
		b.wheel.At(time.Now().Add(b.scaled(b.cfg.MaxHoldMS)), ln.onHold)
	}
	ln.mu.Unlock()
	// Outside the lane lock: a grant that fits runs its callback, which
	// locks the lane, on this goroutine.
	if ask {
		b.ask(m)
	}
	b.startNow(sealed)
}

// Queued reports how many requests are waiting, unsealed, in model m's
// lane right now (the fan-in a tracing waiter records as the lane
// occupancy it joined). Sealed (already running) batches no longer
// count — a new request would start a fresh batch.
func (b *Batcher) Queued(m int) int {
	return int(b.lanes[m].queued.Load())
}

// Stats returns a snapshot of the runtime's counters.
func (b *Batcher) Stats() Stats {
	b.statMu.Lock()
	defer b.statMu.Unlock()
	return b.stats
}

// ask puts model m's lane in the grant line for the model's footprint.
// Called without the lane lock: the grant may arrive at once.
func (b *Batcher) ask(m int) {
	b.mem.Grant(b.models[m].MemMB, b.lanes[m].onGrant)
}

// held is the hold timer of model m's lane, armed for the generation at
// the front of the lane's holds. The generation check makes a timer that
// lost the race to a size flush (or to a later batch entirely) a no-op,
// and one that finds a grant outstanding leaves the seal to the grant.
func (b *Batcher) held(m int) {
	var sealed *batch
	ln := &b.lanes[m]
	ln.mu.Lock()
	gen := ln.holds[0]
	ln.holds = ln.holds[:copy(ln.holds, ln.holds[1:])]
	if ln.gen == gen && !ln.asked && len(ln.reqs) > 0 {
		sealed = b.seal(m, len(ln.reqs), flushHold)
	}
	ln.mu.Unlock()
	b.startNow(sealed)
}

// granted is the grant callback of model m's lane: the footprint is
// claimed from instant at on, so seal the requests enqueued by then (at
// most MaxBatch) and start them at at. The rest ask again, at the back
// of the line.
func (b *Batcher) granted(m int, at time.Time) {
	ln := &b.lanes[m]
	ln.mu.Lock()
	// The lane's first request was enqueued before the lane asked, and a
	// grant starts no earlier than its ask, so it always rides.
	n, most := 1, min(len(ln.reqs), b.cfg.MaxBatch)
	for n < most && !ln.reqs[n].at.After(at) {
		n++
	}
	sealed := b.seal(m, n, flushGrant)
	sealed.memMB = b.models[m].MemMB
	ln.asked = len(ln.reqs) > 0
	again := ln.asked
	ln.mu.Unlock()
	b.start(sealed, at)
	if again {
		b.ask(m)
	}
}

// seal detaches the first n of model m's waiting requests as one batch,
// taken from the lane's free list. The batch copies the requests into
// its own slice and the lane moves the rest to the front of its array,
// so neither slice reallocates once it has grown. Called with the lane
// locked.
func (b *Batcher) seal(m, n int, flush string) *batch {
	ln := &b.lanes[m]
	var bt *batch
	if k := len(ln.free); k > 0 {
		bt = ln.free[k-1]
		ln.free[k-1] = nil
		ln.free = ln.free[:k-1]
	} else {
		bt = &batch{m: m}
		bt.fire = func() { b.finish(bt) }
	}
	bt.reqs = append(bt.reqs, ln.reqs[:n]...)
	bt.flush, bt.memMB = flush, 0
	left := copy(ln.reqs, ln.reqs[n:])
	clear(ln.reqs[left:]) // keep no sealed request's done or ref alive
	ln.reqs = ln.reqs[:left]
	ln.gen++
	ln.queued.Add(int64(-n))
	b.cfg.Metrics.sealed(n, ln.heldSince, b.cfg.TimeScale)
	ln.heldSince = time.Time{}
	if len(ln.reqs) > 0 {
		ln.heldSince = b.cfg.Metrics.holdStart()
	}
	return bt
}

// startNow starts a size- or hold-sealed batch from the wall clock.
// No-op on a nil batch.
func (b *Batcher) startNow(bt *batch) {
	if bt != nil {
		b.start(bt, time.Now())
	}
}

// start arms a sealed batch's execution on the wheel: finish runs on the
// dispatcher at the nominal end, the batched cost after at. A
// grant-sealed batch's at is usually already past — its predecessor's
// end, which the dispatcher reached late — so the wait is shorter by
// that lateness, or none.
func (b *Batcher) start(bt *batch, at time.Time) {
	bt.start = at
	bt.end = at.Add(b.scaled(b.models[bt.m].BatchCostMS(len(bt.reqs))))
	b.wheel.At(bt.end, bt.fire)
}

// finish ends one batch's execution: release its footprint at the
// batch's nominal end (which serves the next grant in line, here on the
// dispatcher), count it, fill the tracing waiters' BatchRefs, wake every
// member, and return the batch to its lane's free list. The refs are
// filled before the done channels are signalled — the signal is the
// happens-before edge that publishes a ref to its waiter. No lock is
// held while signalling.
func (b *Batcher) finish(bt *batch) {
	mod := b.models[bt.m]
	n := len(bt.reqs)
	if bt.memMB > 0 {
		b.mem.Release(bt.memMB, bt.end)
	}
	ownedReqs := 0
	var id int64
	for _, r := range bt.reqs {
		if r.owned {
			ownedReqs++
		}
		if r.ref != nil {
			if id == 0 {
				id = obs.NextBatchID()
			}
			*r.ref = obs.BatchRef{Batch: id, N: n, Seal: bt.start, Flush: bt.flush}
		}
	}
	b.statMu.Lock()
	b.stats.Batches++
	b.stats.Requests += int64(n)
	if n > b.stats.LargestBatch {
		b.stats.LargestBatch = n
	}
	switch bt.flush {
	case flushSize:
		b.stats.SizeFlushes++
	case flushHold:
		b.stats.HoldFlushes++
	case flushGrant:
		b.stats.GrantFlushes++
	}
	b.stats.SavedGPUMS += float64(n)*mod.TimeMS - mod.BatchCostMS(n)
	if bt.memMB > 0 && ownedReqs > 1 {
		b.stats.SavedMemMB += float64(ownedReqs-1) * mod.MemMB
	}
	b.statMu.Unlock()
	for _, r := range bt.reqs {
		if cap(r.done) > 0 {
			r.done <- struct{}{}
		} else {
			close(r.done)
		}
	}
	clear(bt.reqs)
	bt.reqs = bt.reqs[:0]
	ln := &b.lanes[bt.m]
	ln.mu.Lock()
	ln.free = append(ln.free, bt)
	ln.mu.Unlock()
}

// scaled converts simulated milliseconds to a real duration.
func (b *Batcher) scaled(ms float64) time.Duration {
	return time.Duration(ms * b.cfg.TimeScale * float64(time.Millisecond))
}
