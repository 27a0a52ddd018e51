package ams

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ams/internal/oracle"
)

// BatchStats aggregates a LabelBatch run.
type BatchStats struct {
	Processed   int
	AvgRecall   float64 // over items with known ground truth only
	RecallItems int     // items AvgRecall averaged over
	AvgTimeSec  float64 // simulated per-item schedule time
}

// LabelBatch labels many items concurrently with worker goroutines under
// DefaultPolicy(b) — the same policy Label would pick. See LabelBatchWith
// for an explicit policy.
func (s *System) LabelBatch(ctx context.Context, agent *Agent, items []Item, b Budget, workers int) ([]*Result, BatchStats, error) {
	if agent == nil {
		return nil, BatchStats{}, fmt.Errorf("ams: nil agent")
	}
	return s.LabelBatchWith(ctx, DefaultPolicy(b), agent, items, b, workers)
}

// LabelBatchWith labels many items concurrently with worker goroutines,
// each running the given policy. Policies are instantiated once per
// worker: each owns a fork of the agent (its scratch and memo), while the
// agent's frozen network and the execution substrate — precomputed for
// test-split items, on-demand for external ones — are shared read-only. Results are returned in the order
// of the items slice.
//
// Cancelling ctx aborts the batch: items already labeled keep their
// results, the item each worker is on is cut short (partial labels), no
// further items start (their result slots stay nil), and ctx.Err() is
// returned alongside the partial results.
func (s *System) LabelBatchWith(ctx context.Context, policy Policy, agent *Agent, items []Item, b Budget, workers int) ([]*Result, BatchStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := b.Validate(); err != nil {
		return nil, BatchStats{}, err
	}
	ex, indices, err := s.resolveItems(items)
	if err != nil {
		return nil, BatchStats{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 0 {
		return nil, BatchStats{}, nil
	}
	// Validate eagerly so configuration errors surface before any
	// goroutine starts.
	if err := policy.check(agent); err != nil {
		return nil, BatchStats{}, err
	}

	results := make([]*Result, len(items))
	jobs := make(chan int) // index into items
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker private policy (and agent fork).
			private := withCancel(ctx, policy.instantiate(s, agent, nil))
			for idx := range jobs {
				if ctx.Err() != nil {
					continue // dispatched before the cancel landed: slot stays nil
				}
				res := s.runSchedule(ex, indices[idx], private, b)
				results[idx] = s.buildResult(ex, items[idx], res)
			}
		}()
	}
dispatch:
	for idx := range items {
		// Checked before the select too: with an idle worker both select
		// cases are ready and Go picks randomly, which would keep
		// dispatching items after cancellation.
		if ctx.Err() != nil {
			break dispatch
		}
		select {
		case jobs <- idx:
		case <-ctx.Done():
			break dispatch // stop feeding; workers drain and exit
		}
	}
	close(jobs)
	wg.Wait()

	var stats BatchStats
	for _, r := range results {
		if r == nil {
			continue // not started before cancellation
		}
		stats.Processed++
		if r.HasRecall {
			stats.AvgRecall += r.Recall
			stats.RecallItems++
		}
		stats.AvgTimeSec += r.TimeSec
	}
	if stats.RecallItems > 0 {
		stats.AvgRecall /= float64(stats.RecallItems)
	}
	if stats.Processed > 0 {
		stats.AvgTimeSec /= float64(stats.Processed)
	}
	return results, stats, ctx.Err()
}

// resolveItems maps a batch of items onto one shared executor: the plain
// test store when everything is oracle-backed, an on-demand overlay on
// top of it when external items are present.
func (s *System) resolveItems(items []Item) (oracle.Executor, []int, error) {
	indices := make([]int, len(items))
	var overlay *oracle.OnDemand
	for i, item := range items {
		ext, err := s.checkItem(item)
		if err != nil {
			return nil, nil, fmt.Errorf("%w (batch index %d)", err, i)
		}
		if ext == nil {
			indices[i] = item.image
			continue
		}
		if overlay == nil {
			overlay = oracle.NewOnDemand(s.Zoo, s.testStore)
		}
		indices[i] = overlay.Add(ext)
	}
	if overlay != nil {
		return overlay, indices, nil
	}
	return s.testStore, indices, nil
}
