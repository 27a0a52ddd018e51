package ams

import (
	"fmt"
	"io"
)

// WriteSummary renders the run's human-readable summary — the block
// cmd/amsserve and examples/labelserver print after a trace. It is the
// one shared renderer for ServeStats so the binaries cannot drift into
// reporting the same run differently: core latency/throughput lines
// always, then each optional subsystem (memory budget, batching,
// predictor cache, sharding) only when the run exercised it.
// memBudgetMB annotates the peak-memory line with the configured budget
// (0 omits the annotation).
func (s ServeStats) WriteSummary(w io.Writer, name string, memBudgetMB float64) {
	fmt.Fprintf(w, "%s:\n", name)
	fmt.Fprintf(w, "  %-18s %8d\n", "items", s.Items)
	fmt.Fprintf(w, "  %-18s %8.3f s\n", "avg queue wait", s.AvgQueueWaitSec)
	fmt.Fprintf(w, "  %-18s %8.3f s\n", "avg latency", s.AvgLatencySec)
	fmt.Fprintf(w, "  %-18s %8.3f s\n", "p95 latency", s.P95LatencySec)
	if s.RecallItems > 0 {
		fmt.Fprintf(w, "  %-18s %8.3f (over %d ground-truth items)\n", "avg recall", s.AvgRecall, s.RecallItems)
	} else {
		fmt.Fprintf(w, "  %-18s %8s (external items: no ground truth)\n", "avg recall", "n/a")
	}
	fmt.Fprintf(w, "  %-18s %8.2f /s\n", "throughput", s.ThroughputHz)
	fmt.Fprintf(w, "  %-18s %8.1f %%\n", "utilization", 100*s.Utilization)
	fmt.Fprintf(w, "  %-18s %8.2f s\n", "horizon", s.HorizonSec)
	// Shedding counters: admissions refused by the bounded queue and
	// Results-stream entries dropped behind a lagging consumer.
	fmt.Fprintf(w, "  %-18s %8d rejected, %d results dropped\n", "shedding", s.Rejected, s.ResultsDropped)
	if s.AvgSelectSec > 0 {
		// Real (unscaled) CPU time inside the policy per item — the
		// paper's Table III selection overhead.
		fmt.Fprintf(w, "  %-18s %8.3f ms (real, unscaled)\n", "avg select/item", s.AvgSelectSec*1000)
	}
	if s.PeakMemMB > 0 {
		if memBudgetMB > 0 {
			fmt.Fprintf(w, "  %-18s %8.0f MB (budget %.0f MB, %d blocked reservations)\n",
				"peak GPU memory", s.PeakMemMB, memBudgetMB, s.MemWaits)
		} else {
			fmt.Fprintf(w, "  %-18s %8.0f MB (%d blocked reservations)\n",
				"peak GPU memory", s.PeakMemMB, s.MemWaits)
		}
	}
	if s.BatchedRequests > 0 {
		fmt.Fprintf(w, "  %-18s %8d requests in %d batches (largest %d)\n",
			"batching", s.BatchedRequests, s.Batches, s.LargestBatch)
		fmt.Fprintf(w, "  %-18s %8.0f GPU-ms, %.0f MB of reservations\n",
			"coalesced away", s.BatchSavedGPUMS, s.BatchSavedMemMB)
	}
	if hm := s.PredCacheHits + s.PredCacheMisses; hm > 0 {
		fmt.Fprintf(w, "  %-18s %8.1f %% hits (%d lookups, %d states cached)\n",
			"predictor cache", 100*float64(s.PredCacheHits)/float64(hm), hm, s.PredCacheEntries)
	}
	if s.Shards > 1 {
		fmt.Fprintf(w, "  %-18s %8d shards, %d steals\n", "sharding", s.Shards, s.Steals)
		for _, ps := range s.PerShard {
			fmt.Fprintf(w, "    shard %d: %d items, %.2f /s, %.1f %% util, %d assigned, %d stolen-in, %d stolen-out, %d shed\n",
				ps.Shard, ps.Items, ps.ThroughputHz, 100*ps.Utilization, ps.Assigned, ps.Steals, ps.StolenFrom, ps.Rejected)
		}
	}
}

// WriteSummary renders the corpus retention block both binaries print:
// how many ingested items the corpus tracks, how many still hold
// memory, and what the journal costs.
func (cs CorpusStats) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "corpus:\n")
	fmt.Fprintf(w, "  %-18s %8d (%d committed)\n", "items", cs.Items, cs.Committed)
	fmt.Fprintf(w, "  %-18s %8d\n", "resident", cs.Resident)
	fmt.Fprintf(w, "  %-18s %8d\n", "evicted", cs.Evicted)
	fmt.Fprintf(w, "  %-18s %8d B in %d records (%d snapshots, %d segments)\n",
		"journal", cs.JournalBytes, cs.JournalRecords, cs.Snapshots, cs.Segments)
	if cs.Syncs > 0 || cs.Unsynced > 0 {
		fmt.Fprintf(w, "  %-18s %8d group commits (%d records unsynced)\n", "fsync", cs.Syncs, cs.Unsynced)
	}
}
