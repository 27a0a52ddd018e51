// Package shard scales the labeling server across independent shards.
//
// A shard is the unit representing one GPU (or node): one serve.Server
// with its own worker pool, its own Algorithm-2 memory accountant, and —
// when the deployment journals ingestion — its own corpus journal
// segment, so nothing a shard does contends with its siblings on a lock,
// a budget, or a file.
//
// The Router in front owns placement and load balance:
//
//   - Placement assigns each submitted item a home shard — by consistent
//     hash of the item's key (stable across restarts), by least load, or
//     by model affinity: items whose hinted models match a shard's
//     accumulated "heat" land together, so each shard's hot models stay
//     resident and its packing policy sees stable headroom instead of
//     thrash.
//   - Work-stealing (optional) keeps shards busy under skew: a shard
//     whose own queue is empty and whose in-flight count is below its
//     capacity takes the oldest stealable item from the longest sibling
//     queue.
//   - Items resolve to an executor index at dispatch time, on the shard
//     that will execute them. That is what makes stealing compose with
//     durable ingestion: an external item is admitted into (and
//     journaled by) the segment of the shard that actually runs it.
//
// Stats merges every shard's completion records through one
// service.Summarize reduction (the shards share a clock epoch), and
// additionally breaks out per-shard utilization, steals, and sheds.
package shard

import (
	"context"
	"fmt"
	"sync"

	"ams/internal/serve"
	"ams/internal/service"
)

// Placement selects the router's placement policy.
type Placement int

const (
	// Hash places by consistent hash of the item key: stable across
	// restarts and routers, oblivious to load.
	Hash Placement = iota
	// LeastLoaded places on the shard with the fewest pending plus
	// in-flight items.
	LeastLoaded
	// Affinity places on the shard whose accumulated model heat best
	// matches the item's hinted models, falling back to hash when no
	// shard has seen any of them. Heat is credited at placement time and
	// decayed by periodic halving, so the mapping adapts to traffic while
	// staying deterministic for a given submission order.
	Affinity
)

// PlacementByName maps the CLI spelling of a placement policy.
func PlacementByName(name string) (Placement, error) {
	switch name {
	case "hash", "":
		return Hash, nil
	case "least":
		return LeastLoaded, nil
	case "affinity":
		return Affinity, nil
	}
	return 0, fmt.Errorf("shard: unknown placement %q (want hash, least, or affinity)", name)
}

func (p Placement) String() string {
	switch p {
	case Hash:
		return "hash"
	case LeastLoaded:
		return "least"
	case Affinity:
		return "affinity"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// Item is one routed submission.
type Item struct {
	// Key identifies the item for hash placement (and the affinity
	// fallback). Callers derive it from a stable item identity so
	// placement survives restarts.
	Key uint64
	// Hint lists the model IDs expected to carry the item's value — the
	// affinity signal. Ignored by other placements.
	Hint []int
	// Tag is echoed verbatim in the result.
	Tag string
	// Index is the item's index in every shard's executor, for items
	// present in a shared store. Ignored when Resolve is set.
	Index int
	// Resolve, when set, maps the item to an executor index on the shard
	// chosen to execute it, called at dispatch time on that shard's
	// dispatcher (it may block — e.g. on a corpus residency watermark,
	// which is backpressure). This is how external items are admitted
	// into the executing shard's own journal segment, including when the
	// item is stolen.
	Resolve func(shard int) (int, error)
	// Pin, when positive, pins the item to shard Pin-1: placement is
	// bypassed and the item is never stolen. Replay uses this to route
	// recovered items back to the segment that journaled them. Zero
	// routes normally.
	Pin int
}

// placed is one queued submission: the item, where placement put it
// (steal provenance), and the caller's ticket — the same object the
// executing server admits and the caller waits on.
type placed struct {
	Item
	home int
	tk   *serve.Ticket
}

// Config parameterizes a Router.
type Config struct {
	// Placement is the home-shard policy (default Hash).
	Placement Placement
	// Steal lets an idle shard take pending items from a loaded sibling.
	Steal bool
	// QueueCap bounds each shard's pending (placed, not yet dispatched)
	// queue; Submit rejects past it. Default 2x the shard's workers.
	QueueCap int
	// Models is the zoo size, for affinity heat accounting. Required for
	// Affinity placement.
	Models int
	// Workers is each shard's worker count, parallel to the servers
	// handed to New. Required: it weights the merged utilization and is
	// each shard's steal gate — a shard steals only while its in-flight
	// count is below its worker count.
	Workers []int
}

// Router fans submissions out to shards. Safe for concurrent use.
type Router struct {
	servers []*serve.Server
	cfg     Config

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [][]placed    // pending per shard, oldest first
	space    chan struct{} // closed and replaced whenever a queue drains a slot
	closed   bool
	inflight []int // dispatched, not yet completed, per shard

	// per holds each shard's live routing counters — Assigned, Steals,
	// StolenFrom and the router's share of Rejected (non-blocking submits
	// refused at a full pending queue) — in the record Stats reports.
	per      []ShardStats
	failures int64 // tickets failed at resolution/dispatch

	heat    [][]float64 // [shard][model] affinity heat
	heatSum float64

	dispWG sync.WaitGroup // dispatchers
}

// New builds a router over the given shard servers. The servers must
// share a Config.Epoch so their stats merge on one timeline.
func New(servers []*serve.Server, cfg Config) (*Router, error) {
	n := len(servers)
	if n == 0 {
		return nil, fmt.Errorf("shard: no servers")
	}
	if len(cfg.Workers) != n {
		return nil, fmt.Errorf("shard: %d servers but %d worker counts", n, len(cfg.Workers))
	}
	if cfg.Placement == Affinity && cfg.Models <= 0 {
		return nil, fmt.Errorf("shard: affinity placement needs the model count")
	}
	r := &Router{
		servers:  servers,
		cfg:      cfg,
		queues:   make([][]placed, n),
		space:    make(chan struct{}),
		inflight: make([]int, n),
		per:      make([]ShardStats, n),
		heat:     make([][]float64, n),
	}
	r.cond = sync.NewCond(&r.mu)
	for s := range r.heat {
		r.heat[s] = make([]float64, cfg.Models)
		r.per[s].Shard = s
	}
	for s := 0; s < n; s++ {
		// The router learns of completions from the finishing worker
		// itself: no goroutine waits on a routed ticket.
		servers[s].OnFinish(func() { r.retire(s, false) })
		// One dispatcher per inner worker: resolution (which may journal
		// an admission and block on a residency watermark) and the
		// inner-queue handoff then pipeline with service instead of
		// serializing the whole shard behind a single goroutine.
		d := cfg.Workers[s]
		if d < 1 {
			d = 1
		}
		for i := 0; i < d; i++ {
			r.dispWG.Add(1)
			go r.dispatch(s)
		}
	}
	return r, nil
}

// mix is splitmix64's finalizer: the consistent hash under Hash
// placement.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardFor is the pure hash placement: the home shard of a key. It is a
// function of (key, shards) alone, so a restarted or rebuilt router
// places every key identically.
func ShardFor(key uint64, shards int) int {
	return int(mix(key) % uint64(shards))
}

// queueCap is shard s's pending bound.
func (r *Router) queueCap(s int) int {
	if r.cfg.QueueCap > 0 {
		return r.cfg.QueueCap
	}
	return 2 * r.cfg.Workers[s]
}

// load is shard s's pending + in-flight count. Caller holds r.mu.
func (r *Router) load(s int) int { return len(r.queues[s]) + r.inflight[s] }

// place picks the home shard. Caller holds r.mu.
func (r *Router) place(it *Item) int {
	if it.Pin > 0 {
		return it.Pin - 1
	}
	n := len(r.servers)
	switch r.cfg.Placement {
	case LeastLoaded:
		best := 0
		for s := 1; s < n; s++ {
			if r.load(s) < r.load(best) {
				best = s
			}
		}
		return best
	case Affinity:
		best, bestScore := -1, 0.0
		for s := 0; s < n; s++ {
			score := 0.0
			for _, m := range it.Hint {
				if m >= 0 && m < len(r.heat[s]) {
					score += r.heat[s][m]
				}
			}
			switch {
			case best < 0 || score > bestScore:
				best, bestScore = s, score
			case score == bestScore && r.load(s) < r.load(best):
				best = s
			}
		}
		if bestScore == 0 {
			// No shard has seen these models (or the item carries no
			// hint): place by hash so cold traffic still spreads.
			return ShardFor(it.Key, n)
		}
		return best
	}
	return ShardFor(it.Key, n)
}

// credit accumulates affinity heat for the hinted models on shard s,
// halving all heat once the total passes a bound so the mapping tracks
// recent traffic instead of all history. Caller holds r.mu.
func (r *Router) credit(s int, hint []int) {
	if r.cfg.Placement != Affinity {
		return
	}
	for _, m := range hint {
		if m >= 0 && m < len(r.heat[s]) {
			r.heat[s][m]++
			r.heatSum++
		}
	}
	if r.heatSum > 256*float64(len(r.servers)) {
		r.heatSum = 0
		for _, hs := range r.heat {
			for m := range hs {
				hs[m] /= 2
				r.heatSum += hs[m]
			}
		}
	}
}

// enqueue places one item and queues its ticket on the home shard. When
// that shard's pending queue is at capacity it returns
// serve.ErrQueueFull with the channel that closes once a slot frees —
// counted as a shed only for a caller that will not wait for it.
func (r *Router) enqueue(it Item, tk *serve.Ticket, wait bool) (<-chan struct{}, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, serve.ErrClosed
	}
	s := r.place(&it)
	if s < 0 || s >= len(r.servers) {
		return nil, fmt.Errorf("shard: pin to nonexistent shard %d", s)
	}
	if len(r.queues[s]) >= r.queueCap(s) {
		if !wait {
			r.per[s].Rejected++
		}
		return r.space, serve.ErrQueueFull
	}
	r.queues[s] = append(r.queues[s], placed{Item: it, home: s, tk: tk})
	r.per[s].Assigned++
	r.credit(s, it.Hint)
	r.cond.Broadcast()
	return nil, nil
}

// Submit places one item without blocking. It returns
// serve.ErrQueueFull when the home shard's pending queue is at capacity
// and serve.ErrClosed after Close. The ticket's arrival is stamped here,
// so the item's queue wait and latency include its time pending in the
// router and in dispatch-time resolution.
func (r *Router) Submit(it Item) (*serve.Ticket, error) {
	tk := serve.NewTicket(it.Tag)
	if _, err := r.enqueue(it, tk, false); err != nil {
		return nil, err
	}
	return tk, nil
}

// SubmitWait places one item, blocking while the home shard's pending
// queue is full until a slot frees, the context is cancelled, or the
// router closes. The wait is backpressure, not a shed, and the ticket's
// arrival is stamped before it.
func (r *Router) SubmitWait(ctx context.Context, it Item) (*serve.Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tk := serve.NewTicket(it.Tag)
	for {
		space, err := r.enqueue(it, tk, true)
		if err == nil {
			return tk, nil
		}
		if err != serve.ErrQueueFull {
			return nil, err
		}
		select {
		case <-space:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// wake signals queue-slot waiters (SubmitWait) and re-checks every
// dispatcher's wait condition — a dequeue may satisfy a sibling's
// closed-and-drained exit test. Caller holds r.mu.
func (r *Router) wake() {
	close(r.space)
	r.space = make(chan struct{})
	r.cond.Broadcast()
}

// dispatch is shard s's dispatcher: it feeds the shard's server from the
// shard's pending queue, stealing from siblings when allowed and idle,
// until the router closes and every queue is drained.
func (r *Router) dispatch(s int) {
	defer r.dispWG.Done()
	for {
		p, ok := r.next(s)
		if !ok {
			return
		}
		r.run(s, p)
	}
}

// next blocks until shard s has an item to execute (own queue first,
// then a steal) or the router has closed with nothing left anywhere.
func (r *Router) next(s int) (p placed, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if q := r.queues[s]; len(q) > 0 {
			p, r.queues[s] = q[0], q[1:]
			r.inflight[s]++
			r.wake()
			return p, true
		}
		if r.cfg.Steal && r.inflight[s] < r.cfg.Workers[s] {
			if v, i := r.stealTarget(s); v >= 0 {
				p = r.queues[v][i]
				r.queues[v] = append(r.queues[v][:i], r.queues[v][i+1:]...)
				r.inflight[s]++
				r.per[s].Steals++
				r.per[v].StolenFrom++
				// The thief becomes the item's de-facto home: heat
				// follows it so like items can follow too.
				r.credit(s, p.Hint)
				r.wake()
				return p, true
			}
		}
		if r.closed && r.pendingTotal() == 0 {
			return placed{}, false
		}
		r.cond.Wait()
	}
}

// stealTarget picks the longest sibling queue and the oldest stealable
// (unpinned) ticket in it. Caller holds r.mu.
func (r *Router) stealTarget(thief int) (victim, idx int) {
	victim = -1
	for v := range r.queues {
		if v == thief {
			continue
		}
		for i := range r.queues[v] {
			if r.queues[v][i].Pin > 0 {
				continue
			}
			if victim < 0 || len(r.queues[v]) > len(r.queues[victim]) {
				victim, idx = v, i
			}
			break
		}
	}
	return victim, idx
}

// pendingTotal sums all pending queues. Caller holds r.mu.
func (r *Router) pendingTotal() int {
	total := 0
	for _, q := range r.queues {
		total += len(q)
	}
	return total
}

// run resolves one dequeued item on shard s and hands its ticket to the
// shard's server; the server's completion hook retires it. A resolution
// error or a refused admission (the server closed underneath the router)
// fails the ticket instead, exactly once, here.
func (r *Router) run(s int, p placed) {
	stolen := p.home != s
	idx := p.Index
	var err error
	if p.Resolve != nil {
		idx, err = p.Resolve(s)
	}
	if err == nil {
		// Provenance rides the ticket: the handoff into the executing
		// server's queue orders these writes ahead of the worker that
		// stamps them into the item's trace.
		p.tk.Home, p.tk.Shard, p.tk.Stolen = p.home, s, stolen
		//amsvet:allow ctxflow the dispatcher outlives any submitter ctx; Router.Close is its cancellation scope
		err = r.servers[s].AdmitWait(context.Background(), p.tk, idx)
	}
	if err != nil {
		p.tk.Fail(err)
		r.retire(s, true)
	}
}

// retire takes one dispatched item off shard s's in-flight count —
// completed, or failed at dispatch — re-opening the shard's steal gate
// and re-checking every dispatcher's exit/steal condition.
func (r *Router) retire(s int, failed bool) {
	r.mu.Lock()
	r.inflight[s]--
	if failed {
		r.failures++
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Close stops admission, drains every pending queue through the shard
// servers, and closes them — which waits for every admitted ticket to
// resolve.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return serve.ErrClosed
	}
	r.closed = true
	r.wake()
	r.mu.Unlock()
	r.dispWG.Wait() // every placed item has been handed to a server
	var firstErr error
	for _, sv := range r.servers {
		if err := sv.Close(); err != nil && err != serve.ErrClosed && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ShardStats is one shard's slice of the merged picture.
type ShardStats struct {
	Shard        int
	Items        int     // completions in the shard's stats window
	Completed    int64   // total completions
	ThroughputHz float64 // over the shard's own records
	Utilization  float64 // of the shard's own workers
	AvgRecall    float64
	PeakMemMB    float64
	MemWaits     int64
	Pending      int   // placed, not yet dispatched
	Assigned     int64 // home placements
	Steals       int64 // items this shard stole from siblings
	StolenFrom   int64 // items siblings stole from this shard
	Rejected     int64 // sheds: submits refused at this shard's queue cap
}

// Stats is the router-wide picture: one merged reduction over every
// shard's records plus the per-shard breakdown.
type Stats struct {
	Merged   serve.RunStats // all shards' records, one Summarize
	PerShard []ShardStats
	Steals   int64 // total stolen dispatches
	Failures int64 // tickets failed at resolution/dispatch
}

// RejectedTotal is the router-level shed count (submits refused at a
// full pending queue), cheap enough for a flight-recorder trigger to
// poll. Server-level sheds are not included; callers that want the full
// picture add the per-shard serve totals.
func (r *Router) RejectedTotal() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for s := range r.per {
		total += r.per[s].Rejected
	}
	return total
}

// StealsTotal is the total stolen dispatches across all shards, cheap
// enough for a flight-recorder trigger to poll.
func (r *Router) StealsTotal() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for s := range r.per {
		total += r.per[s].Steals
	}
	return total
}

// Stats merges every shard's completion records through one Summarize
// reduction — valid because the servers share a clock epoch — and
// reports the per-shard breakdown beside it.
func (r *Router) Stats() Stats {
	st := Stats{PerShard: make([]ShardStats, len(r.servers))}
	r.mu.Lock()
	copy(st.PerShard, r.per)
	for s := range st.PerShard {
		st.PerShard[s].Pending = len(r.queues[s])
		st.Steals += r.per[s].Steals
	}
	st.Failures = r.failures
	r.mu.Unlock()
	workers := 0
	var records []service.Record
	merged := &st.Merged
	for s, sv := range r.servers {
		rs, ps := sv.Stats(), &st.PerShard[s]
		records = append(records, sv.Records()...)
		workers += r.cfg.Workers[s]
		ps.Items = rs.Items
		ps.Completed = rs.Completed
		ps.ThroughputHz = rs.ThroughputHz
		ps.Utilization = rs.Utilization
		ps.AvgRecall = rs.AvgRecall
		ps.PeakMemMB = rs.PeakMemMB
		ps.MemWaits = rs.MemWaits
		ps.Rejected += rs.Rejected
		merged.Completed += rs.Completed
		merged.PeakMemMB += rs.PeakMemMB // summed per-shard peaks: the footprint bound
		merged.MemWaits += rs.MemWaits
		merged.Rejected += ps.Rejected
		merged.ResultsDropped += rs.ResultsDropped
		merged.Batching.Batches += rs.Batching.Batches
		merged.Batching.Requests += rs.Batching.Requests
		merged.Batching.SizeFlushes += rs.Batching.SizeFlushes
		merged.Batching.HoldFlushes += rs.Batching.HoldFlushes
		merged.Batching.SavedGPUMS += rs.Batching.SavedGPUMS
		merged.Batching.SavedMemMB += rs.Batching.SavedMemMB
		if rs.Batching.LargestBatch > merged.Batching.LargestBatch {
			merged.Batching.LargestBatch = rs.Batching.LargestBatch
		}
	}
	merged.Stats = service.SummarizeWindow(records, workers, merged.Completed)
	return st
}
