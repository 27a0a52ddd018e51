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
// A lane with no owned request (no budget, or the parallel path whose
// items hold their own reservations) has nothing to wait for, so it
// bounds how long a lone request can wait for batch-mates instead: it
// seals when it reaches Config.MaxBatch requests, or when the oldest
// request has waited Config.MaxHoldMS on the simulated clock, whichever
// comes first — so a cold model's single request is delayed by at most
// the hold, never starved.
//
// Every sealed batch runs as one callback on the shared timer wheel,
// which releases the grant (serving the next one in line), fills the
// waiters' BatchRefs and wakes them. The package starts no goroutine of
// its own. With MaxBatch = 1 every batch holds one request and the
// runtime reproduces the unbatched claim → sleep → release sequence.
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
// owns the claim and the batcher releases it when the batch's execution
// ends. Grant returns false, without running fn, only when mb exceeds
// the whole budget. A nil Memory disables the footprint (no budget
// configured).
type Memory interface {
	Grant(mb float64, fn func()) bool
	Release(mb float64)
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
	// Metrics, when non-nil, receives batch-size, hold-span and
	// flush-cause observations. Nil disables instrumentation entirely.
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
	ref   *obs.BatchRef // fan-in telemetry handoff; nil when the waiter isn't tracing
}

// lane collects one model's pending requests until a flush seals them.
type lane struct {
	mu        sync.Mutex
	gen       uint64 // bumped at each seal; stale hold timers check it
	reqs      []request
	queued    atomic.Int64 // lock-free mirror of len(reqs) for Queued
	heldSince time.Time    // wall stamp of the oldest unsealed request (metrics only)
	asked     bool         // a grant is outstanding: the lane seals when it arrives
	onGrant   func()       // the grant callback, built once so asking allocates nothing
}

// batch is one sealed batch on its way to the wheel.
type batch struct {
	m     int
	reqs  []request
	flush string
	memMB float64   // footprint the batch's grant claimed; released at the end
	seal  time.Time // seal stamp, read only when some waiter is tracing
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
		b.lanes[m].onGrant = func() { b.granted(m) }
	}
	return b
}

// Enqueue registers one request for model m and returns immediately;
// done is closed when the batched execution containing the request
// completes. owned asks the batch to hold the model's footprint against
// the Memory on the request's behalf (the serial path); a non-owned
// request's caller keeps its own reservation (the parallel path, whose
// coordinator releases at commit) and the batch only shares the
// execution. ref, when non-nil, is filled with the batch's fan-in
// identity (id, size, seal stamp, flush cause) before done closes, so
// a tracing waiter can record its batch-hold and exec spans; nil keeps
// the batcher clock-free for that request.
func (b *Batcher) Enqueue(m int, owned bool, done chan struct{}, ref *obs.BatchRef) {
	ln := &b.lanes[m]
	ln.mu.Lock()
	ln.reqs = append(ln.reqs, request{done: done, owned: owned, ref: ref})
	ln.queued.Add(1)
	if len(ln.reqs) == 1 {
		ln.heldSince = b.cfg.Metrics.holdStart()
	}
	var sealed batch
	ask := false
	switch {
	case ln.asked:
		// The lane seals when its grant arrives; the request rides along.
	case owned && b.mem != nil:
		ln.asked, ask = true, true
	case len(ln.reqs) >= b.cfg.MaxBatch:
		sealed = b.seal(m, len(ln.reqs), flushSize)
	case b.cfg.MaxHoldMS <= 0:
		sealed = b.seal(m, len(ln.reqs), flushHold)
	case len(ln.reqs) == 1:
		// First request of a fresh batch: arm the lane's hold timer. The
		// generation check makes a timer that lost the race to a size
		// flush (or to a later batch entirely) a no-op, and one that finds
		// a grant outstanding leaves the seal to the grant.
		gen := ln.gen
		b.wheel.AfterFunc(b.scaled(b.cfg.MaxHoldMS), func() {
			var sealed batch
			ln.mu.Lock()
			if ln.gen == gen && !ln.asked && len(ln.reqs) > 0 {
				sealed = b.seal(m, len(ln.reqs), flushHold)
			}
			ln.mu.Unlock()
			b.start(sealed)
		})
	}
	ln.mu.Unlock()
	// Outside the lane lock: a grant that fits runs its callback, which
	// locks the lane, on this goroutine.
	if ask {
		b.ask(m)
	}
	b.start(sealed)
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
	if !b.mem.Grant(b.models[m].MemMB, b.lanes[m].onGrant) {
		// Unreachable through the server: policies only select models that
		// fit the budget. Kept as a contract assertion, like the
		// accountant's.
		panic(fmt.Sprintf("batch: model %d footprint %v MB exceeds the whole memory budget", m, b.models[m].MemMB))
	}
}

// granted is the grant callback of model m's lane: the footprint is
// claimed, so seal what the lane holds (at most MaxBatch) and start it.
// Leftovers ask again, at the back of the line.
func (b *Batcher) granted(m int) {
	ln := &b.lanes[m]
	ln.mu.Lock()
	sealed := b.seal(m, min(len(ln.reqs), b.cfg.MaxBatch), flushGrant)
	sealed.memMB = b.models[m].MemMB
	ln.asked = len(ln.reqs) > 0
	again := ln.asked
	ln.mu.Unlock()
	b.start(sealed)
	if again {
		b.ask(m)
	}
}

// seal detaches the first n of model m's waiting requests as one batch.
// Called with the lane locked.
func (b *Batcher) seal(m, n int, flush string) batch {
	ln := &b.lanes[m]
	bt := batch{m: m, reqs: ln.reqs[:n:n], flush: flush}
	// The lane keeps appending past n into the same array; the batch's
	// capacity ends at n, so the two never share an element.
	ln.reqs = ln.reqs[n:]
	ln.gen++
	ln.queued.Add(int64(-n))
	b.cfg.Metrics.sealed(n, flush, ln.heldSince, b.cfg.TimeScale)
	ln.heldSince = time.Time{}
	if len(ln.reqs) > 0 {
		ln.heldSince = b.cfg.Metrics.holdStart()
	}
	for _, r := range bt.reqs {
		if r.ref != nil {
			// The seal instant: execution begins here. Read only when some
			// waiter is tracing, so the disabled path stays clock-free.
			bt.seal = time.Now()
			break
		}
	}
	return bt
}

// start arms a sealed batch's execution on the wheel: the sub-linear
// batched cost later, finish runs on the dispatcher. No-op on an empty
// batch.
func (b *Batcher) start(bt batch) {
	if len(bt.reqs) == 0 {
		return
	}
	b.wheel.AfterFunc(b.scaled(b.models[bt.m].BatchCostMS(len(bt.reqs))), func() { b.finish(bt) })
}

// finish ends one batch's execution: release its footprint (which serves
// the next grant in line, here on the dispatcher), count it, fill the
// tracing waiters' BatchRefs, and wake every member. The refs are filled
// before the done channels close — the close is the happens-before edge
// that publishes a ref to its waiter.
func (b *Batcher) finish(bt batch) {
	mod := b.models[bt.m]
	n := len(bt.reqs)
	if bt.memMB > 0 {
		b.mem.Release(bt.memMB)
	}
	ownedReqs := 0
	for _, r := range bt.reqs {
		if r.owned {
			ownedReqs++
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
	if !bt.seal.IsZero() {
		id := obs.NextBatchID()
		for _, r := range bt.reqs {
			if r.ref != nil {
				*r.ref = obs.BatchRef{Batch: id, N: n, Seal: bt.seal, Flush: bt.flush}
			}
		}
	}
	for _, r := range bt.reqs {
		close(r.done)
	}
}

// scaled converts simulated milliseconds to a real duration.
func (b *Batcher) scaled(ms float64) time.Duration {
	return time.Duration(ms * b.cfg.TimeScale * float64(time.Millisecond))
}
