// Package shard scales the labeling server across independent shards.
//
// A shard is the unit representing one GPU (or node): one serve.Server
// with its own worker pool and its own Algorithm-2 memory accountant, so
// nothing a shard does contends with its siblings on a lock or a budget.
//
// The Router in front owns placement and load balance, but no queue and
// no goroutine: it places each item once and admits it straight into its
// home shard server's admission queue, the only queue the item waits in
// (a waiting submitter waits on that home queue).
//
//   - Placement assigns each submitted item a home shard — by consistent
//     hash of the item's key (stable across restarts), by least load, or
//     by model affinity: items whose hinted models match a shard's
//     accumulated "heat" land together, so each shard's hot models stay
//     resident and its packing policy sees stable headroom instead of
//     thrash.
//   - Work-stealing (optional) keeps shards busy under skew: a worker
//     whose own queue is empty asks the router, before it parks, for the
//     oldest item in the longest sibling queue; an admission nudges the
//     siblings' idle workers to ask again.
//   - Items resolve to their executor on the worker that takes them, on
//     the shard that executes them, so a stolen item has nothing to
//     undo, and a caller whose resolution depends on the shard (say, one
//     that keeps per-shard state) sees the shard that runs the item.
//
// Stats reports counters only — per shard, where the router placed and
// moved items and what its server counted — and keeps no completion
// records: whoever installs the servers' completion hooks (the root
// server's one stats window) summarizes completions.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ams/internal/oracle"
	"ams/internal/serve"
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
	// shard has seen any of them. Heat is credited once the home shard
	// admits the item (and moves with a steal) and is decayed by periodic
	// halving, so the mapping adapts to traffic while staying
	// deterministic for a given submission order.
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
	// Resolve, when set, maps the item to its own executor (index 0 is
	// the item) on the shard chosen to execute it, called by the worker
	// that takes the item, also when the item is stolen. It may block,
	// which is backpressure on that shard.
	Resolve func(shard int) (oracle.Executor, error)
}

// Config parameterizes a Router.
type Config struct {
	// Placement is the home-shard policy (default Hash).
	Placement Placement
	// Steal lets an idle shard take queued items from a loaded sibling.
	Steal bool
	// Models is the zoo size, for affinity heat accounting. Required for
	// Affinity placement.
	Models int
	// Workers is each shard's worker count, parallel to the servers
	// handed to New. Required: it weights each shard's utilization in
	// the caller's summary of completions (Workers).
	Workers []int
}

// Router places submissions on shards. Safe for concurrent use. It owns
// no queue and starts no goroutine: an item waits in its shard server's
// own admission queue, and that server's idle workers call back into the
// router to steal.
type Router struct {
	servers []*serve.Server
	cfg     Config

	mu     sync.Mutex
	closed bool
	// per holds each shard's live routing counters — Assigned, Steals and
	// StolenFrom — in the entry Stats reports.
	per []ShardStats

	heat    [][]float64 // [shard][model] affinity heat
	heatSum float64
}

// New builds a router over the given shard servers.
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
		servers: servers,
		cfg:     cfg,
		per:     make([]ShardStats, n),
		heat:    make([][]float64, n),
	}
	for s, sv := range servers {
		r.heat[s] = make([]float64, cfg.Models)
		r.per[s].Shard = s
		if cfg.Steal {
			sv.OnIdle(func() *serve.Ticket { return r.steal(s) })
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

// place picks the home shard. Caller holds r.mu.
func (r *Router) place(it *Item) int {
	n := len(r.servers)
	switch r.cfg.Placement {
	case LeastLoaded:
		best, bestLoad := 0, r.servers[0].Load()
		for s := 1; s < n; s++ {
			if load := r.servers[s].Load(); load < bestLoad {
				best, bestLoad = s, load
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
			case score == bestScore && r.servers[s].Load() < r.servers[best].Load():
				best = s
			}
		}
		if bestScore > 0 {
			return best
		}
		// No shard has seen these models (or the item carries no hint):
		// place by hash so cold traffic still spreads.
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
				hs[m] = float64(hs[m] / 2)
				r.heatSum += hs[m]
			}
		}
	}
}

// Submit places one item without blocking. It returns
// serve.ErrQueueFull — a shed, counted by the home shard's server — when
// the home queue is full, and serve.ErrClosed after Close. The ticket's
// arrival is stamped here, so the item's queue wait and latency include
// its resolution on the shard that runs it.
func (r *Router) Submit(it Item) (*serve.Ticket, error) { return r.submit(nil, it) }

// SubmitWait places one item and admits it to its home shard, blocking
// while that queue is full until a slot frees, the context is cancelled,
// or the shard closes. The wait is backpressure, not a shed, and the
// ticket's arrival is stamped before it.
func (r *Router) SubmitWait(ctx context.Context, it Item) (*serve.Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return r.submit(ctx, it)
}

// submit is Submit when ctx is nil, SubmitWait otherwise. It places once,
// admits outside r.mu (the admission may wait), and counts the placement
// and credits its heat only once the home shard has taken the item.
func (r *Router) submit(ctx context.Context, it Item) (*serve.Ticket, error) {
	tk := serve.NewTicket(it.Tag)
	tk.Hint, tk.Resolve = it.Hint, it.Resolve
	r.mu.Lock()
	h := r.place(&it)
	r.mu.Unlock()
	tk.Home, tk.Shard = h, h
	if err := r.servers[h].Admit(ctx, tk, it.Index); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.per[h].Assigned++
	r.credit(h, it.Hint)
	r.mu.Unlock()
	for s, sib := range r.servers {
		if r.cfg.Steal && s != h {
			sib.Nudge()
		}
	}
	return tk, nil
}

// steal is shard thief's idle hook: it takes the oldest ticket from the
// longest sibling queue and moves the ticket's provenance and heat to the
// thief; nil when every sibling queue is empty.
func (r *Router) steal(thief int) *serve.Ticket {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		victim, most := -1, 0
		for v, sv := range r.servers {
			if l := sv.Live(); v != thief && l.Queued > most {
				victim, most = v, l.Queued
			}
		}
		if victim < 0 {
			return nil
		}
		// nil: the victim's own worker took it first; look again.
		if tk := r.servers[victim].StealOldest(); tk != nil {
			tk.Shard = thief
			r.per[thief].Steals++
			r.per[victim].StolenFrom++
			// The thief becomes the item's de-facto home: heat follows it
			// so like items can follow too.
			r.credit(thief, tk.Hint)
			return tk
		}
	}
}

// Close closes every shard server, each of which stops admission, drains
// its queue and waits for its admitted tickets to resolve, and joins the
// errors the shards' own Close returned: a shard that drained with
// memory still held.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return serve.ErrClosed
	}
	r.closed = true
	r.mu.Unlock()
	var errs []error
	for _, sv := range r.servers {
		// ErrClosed: a shard closed on its own has drained too.
		if err := sv.Close(); err != nil && err != serve.ErrClosed {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ShardStats is one shard's slice of the server-wide picture. Router.Stats
// fills the router's and the shard server's counters; the rest summarize
// completions, which is the job of whoever hooks the servers' OnFinish.
type ShardStats struct {
	Shard        int
	Items        int     // the shard's completions in the stats window
	Completed    int64   // total completions
	ThroughputHz float64 // over the shard's records in the window
	Utilization  float64 // of the shard's own workers
	AvgRecall    float64
	PeakMemMB    float64
	MemWaits     int64
	Pending      int   // queued, not yet taken by a worker
	Assigned     int64 // home placements
	Steals       int64 // items this shard stole from siblings
	StolenFrom   int64 // items siblings stole from this shard
	Rejected     int64 // sheds: submits refused at this shard's queue cap
}

// Stats is the router-wide picture: the per-shard counters and their
// totals.
type Stats struct {
	PerShard []ShardStats
	Steals   int64          // total stolen items
	Total    serve.Counters // summed; PeakMemMB sums the per-shard peaks, the footprint bound
}

// StealsTotal is the total stolen items across all shards, cheap
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

// ShedTotal is the total sheds across all shards — each server's own
// count of submits refused at its full queue — cheap enough for a
// flight-recorder trigger to poll.
func (r *Router) ShedTotal() int64 {
	var total int64
	for _, sv := range r.servers {
		total += sv.Counters().Rejected
	}
	return total
}

// Workers is each shard's worker count, as configured.
func (r *Router) Workers() []int { return r.cfg.Workers }

// Stats reads every shard's routing and server counters and sums the
// server counters.
func (r *Router) Stats() Stats {
	st := Stats{PerShard: make([]ShardStats, len(r.servers))}
	r.mu.Lock()
	copy(st.PerShard, r.per)
	r.mu.Unlock()
	tot := &st.Total
	for s, sv := range r.servers {
		c, ps := sv.Counters(), &st.PerShard[s]
		ps.Pending = sv.Live().Queued
		ps.PeakMemMB, ps.MemWaits, ps.Rejected = c.PeakMemMB, c.MemWaits, c.Rejected
		st.Steals += ps.Steals
		tot.Completed += c.Completed
		tot.Rejected += c.Rejected
		tot.Failed += c.Failed
		tot.PeakMemMB += c.PeakMemMB
		tot.MemWaits += c.MemWaits
		tot.Batching.Add(c.Batching)
	}
	return st
}
