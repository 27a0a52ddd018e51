package ams

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ams/internal/corpus"
	"ams/internal/zoo"
)

// ErrCorpusFull is the corpus's admission backpressure signal: the
// server already holds CorpusOptions.MaxResident resident items. Like
// ErrQueueFull it means "back off and retry"; SubmitWait blocks through
// it instead, waiting for an eviction to free a slot.
var ErrCorpusFull = corpus.ErrFull

// CorpusOptions parameterizes OpenCorpus and OpenCorpusDir.
type CorpusOptions struct {
	// MaxResident, when positive, bounds how many ingested items may
	// hold memoized outputs in memory at once (per journal segment on a
	// segmented corpus). New admissions past the watermark are refused
	// (Submit returns ErrCorpusFull) or blocked (SubmitWait) until
	// committed items are evicted. Zero = unbounded.
	MaxResident int
	// SnapshotEvery, when positive, compacts the journal into a
	// snapshot automatically after every N completed items. Zero
	// disables automatic snapshots (Server.Checkpoint still works).
	SnapshotEvery int
	// SyncEveryN and SyncEveryMS turn on group-commit fsync: a
	// background flusher syncs the journal once N records accumulate
	// and at least every SyncEveryMS milliseconds, without ever
	// blocking a worker on the flush. Both zero (the default) syncs
	// only on Close and snapshots — a process crash still loses
	// nothing, but a machine-level power loss may lose the journal
	// tail.
	SyncEveryN  int
	SyncEveryMS float64
}

// CorpusStats is a point-in-time summary of a corpus, summed across its
// journal segments.
type CorpusStats struct {
	Segments       int   // journal segments (1 unless OpenCorpusDir)
	Items          int   // ingested items the corpus tracks
	Resident       int   // items whose memoized outputs occupy memory
	Committed      int   // items with a journaled completion
	Evicted        int64 // memo reclamations since open
	JournalBytes   int64 // current journal size on disk
	JournalRecords int64 // journal records appended since open
	Snapshots      int64 // compacting snapshots written since open
	Syncs          int64 // group-commit fsync batches since open
	Unsynced       int64 // journal records not yet fsynced
}

// Corpus is a durable, evictable collection of ingested items: the
// persistence layer between "a server that labels external items" and a
// production server on an unbounded stream. Wire one into a server via
// ServeConfig.Corpus and every ingested item's lifecycle becomes
// journaled and bounded:
//
//	admit    — the scene lands in the write-ahead journal before the
//	           item reaches a worker
//	memoize  — each (item, model) output is journaled as inference runs
//	commit   — the completed schedule is journaled; the result a ticket
//	           or the Results stream delivers is captured at this point
//	evict    — once committed and no in-flight schedule holds the item,
//	           its memoized outputs are reclaimed from memory (the
//	           journal keeps the durable copy)
//	snapshot — Server.Checkpoint (or SnapshotEvery) compacts journal +
//	           previous snapshot into one blob and truncates the journal
//	replay   — OpenCorpus on an existing journal recovers the corpus:
//	           System.ReplayCorpus re-serves committed items
//	           bit-identically from their persisted memos (no model
//	           re-runs) and relabels only uncommitted ones
//
// A corpus holds one journal segment per server shard (OpenCorpusDir):
// each shard journals into its own file, so segment writers never
// contend, and crash replay fans out across segments in parallel.
//
// A Corpus is safe for concurrent use but belongs to one server at a
// time. Close it after the server that uses it has closed.
type Corpus struct {
	sys  *System
	segs []*corpus.Corpus
}

// OpenCorpus opens (or creates) a durable single-segment ingestion
// corpus journaled at path. An existing journal (plus its path+".snap"
// snapshot, if any) is loaded and its torn tail — the signature of a
// crash mid-write — discarded, so reopening after a kill at an
// arbitrary byte offset always yields every record that was fully
// written.
//
// The journal stores scenes and model outputs, so reopening requires a
// System with the same model zoo (any System does: the zoo is a pure
// function of the vocabulary); dataset size and split do not matter.
func (s *System) OpenCorpus(path string, opts CorpusOptions) (*Corpus, error) {
	inner, err := corpus.Open(s.Zoo, path, opts.internal())
	if err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	return &Corpus{sys: s, segs: []*corpus.Corpus{inner}}, nil
}

// OpenCorpusDir opens (or creates) a segmented corpus under dir: one
// journal file per server shard (journal-<shard>.log) plus a manifest
// recording the segment count. Pass segments == 0 to reopen an existing
// directory with whatever count it was created with — the crash-replay
// path, which opens (and so recovers) all segments in parallel. Options
// apply to each segment individually.
func (s *System) OpenCorpusDir(dir string, segments int, opts CorpusOptions) (*Corpus, error) {
	segs, err := corpus.OpenDir(s.Zoo, dir, segments, opts.internal())
	if err != nil {
		return nil, fmt.Errorf("ams: %w", err)
	}
	return &Corpus{sys: s, segs: segs}, nil
}

func (o CorpusOptions) internal() corpus.Options {
	return corpus.Options{
		MaxResident:   o.MaxResident,
		SnapshotEvery: o.SnapshotEvery,
		SyncEveryN:    o.SyncEveryN,
		SyncEveryMS:   o.SyncEveryMS,
	}
}

// Segments returns the corpus's journal segment count — the shard count
// a server using it must be configured with (1 means unsharded).
func (c *Corpus) Segments() int { return len(c.segs) }

// Stats returns a point-in-time summary, summed across segments.
func (c *Corpus) Stats() CorpusStats {
	total := CorpusStats{Segments: len(c.segs)}
	for _, seg := range c.segs {
		st := seg.Stats()
		total.Items += st.Items
		total.Resident += st.Resident
		total.Committed += st.Committed
		total.Evicted += st.Evicted
		total.JournalBytes += st.JournalBytes
		total.JournalRecords += st.JournalRecords
		total.Snapshots += st.Snapshots
		total.Syncs += st.Syncs
		total.Unsynced += st.Unsynced
	}
	return total
}

// Snapshot compacts every journal segment into its snapshot — what
// Server.Checkpoint calls. Segments compact concurrently; the first
// error is returned. Safe while a server is running: each segment's
// compaction is atomic against its own writers, so a sharded server's
// checkpoint is consistent per segment.
func (c *Corpus) Snapshot() error {
	errs := make([]error, len(c.segs))
	var wg sync.WaitGroup
	for i, seg := range c.segs {
		wg.Add(1)
		go func(i int, seg *corpus.Corpus) {
			defer wg.Done()
			errs[i] = seg.Snapshot()
		}(i, seg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ams: segment %d: %w", i, err)
		}
	}
	return nil
}

// Close syncs and closes every journal segment. Close the server using
// the corpus first; a journal write error that occurred during serving
// surfaces here if no admission already reported it.
func (c *Corpus) Close() error {
	var firstErr error
	for i, seg := range c.segs {
		if err := seg.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ams: segment %d: %w", i, err)
		}
	}
	return firstErr
}

// SegmentReplay is one journal segment's slice of a replay.
type SegmentReplay struct {
	Segment   int
	Recovered int // committed items rebuilt from persisted memos
	Relabeled int // uncommitted items labeled afresh
}

// ReplayReport is the outcome of System.ReplayCorpus.
type ReplayReport struct {
	// Recovered holds the items whose completion was committed to the
	// journal before the crash, rebuilt bit-identically from their
	// persisted memos — no model inference re-runs for these. The count
	// merges all journal segments (per-segment counts in Segments).
	Recovered []*Result
	// Relabeled holds the items that were admitted but not committed:
	// they are labeled afresh through a server, with journaled partial
	// outputs short-circuiting the models that already ran.
	Relabeled []*Result
	// Segments breaks the replay out per journal segment, in segment
	// order (one entry per segment, zero counts included).
	Segments []SegmentReplay
}

// ReplayCorpus re-serves a reopened corpus — the crash-recovery path.
// Committed items are rebuilt directly from their journaled schedules
// and memoized outputs (bit-identical to the results delivered before
// the crash, zero model executions); uncommitted items are submitted to
// a fresh server built from cfg (cfg.Corpus is forced to c, and on a
// multi-segment corpus cfg.Shards is forced to the segment count, with
// each pending item pinned to its own segment's shard), so their
// schedules re-run only the models whose outputs never reached the
// journal. Segments recover concurrently. When every item is committed
// no server is built and agent may be nil.
//
// Results appear in admission (journal) order within each segment,
// segments in order within each list.
func (s *System) ReplayCorpus(ctx context.Context, agent *Agent, cfg ServeConfig, c *Corpus) (*ReplayReport, error) {
	if c == nil {
		return nil, fmt.Errorf("ams: nil corpus")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	nseg := len(c.segs)
	report := &ReplayReport{Segments: make([]SegmentReplay, nseg)}
	type pendingItem struct {
		seg int
		st  corpus.ItemState
	}
	recovered := make([][]*Result, nseg)
	pendingBySeg := make([][]corpus.ItemState, nseg)
	// Recover committed items before any server exists — building a
	// server reclaims committed memos, and recovery must read them —
	// with one goroutine per segment: journal segments exist so replay
	// work fans out.
	var wg sync.WaitGroup
	for i := range c.segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seg := c.segs[i]
			for _, st := range seg.States() {
				if !st.Committed {
					pendingBySeg[i] = append(pendingBySeg[i], st)
					continue
				}
				item := seg.Item(st.Seq)
				names := make([]string, len(st.Executed))
				outs := make([]zoo.Output, len(st.Executed))
				for j, m := range st.Executed {
					names[j] = s.Zoo.Models[m].Name
					outs[j] = item.Output(m) // memoized from the journal
				}
				pub := Item{id: st.Tag, image: -1, valid: true}
				recovered[i] = append(recovered[i],
					s.assembleResult(pub, names, outs, st.ScheduleMS, 0, false))
			}
		}(i)
	}
	wg.Wait()
	var pending []pendingItem
	for i := range c.segs {
		report.Recovered = append(report.Recovered, recovered[i]...)
		report.Segments[i] = SegmentReplay{Segment: i, Recovered: len(recovered[i])}
		for _, st := range pendingBySeg[i] {
			pending = append(pending, pendingItem{seg: i, st: st})
		}
	}
	if len(pending) == 0 {
		for _, seg := range c.segs {
			seg.ReclaimCommitted()
		}
		return report, nil
	}

	cfg.Corpus = c
	if nseg > 1 {
		cfg.Shards = nseg
	}
	srv, err := s.NewServer(agent, cfg)
	if err != nil {
		return report, err
	}
	type issued struct {
		pendingItem
		tk *ServeTicket
	}
	var tickets []issued
	var submitErr error
	for _, p := range pending {
		pub := Item{id: p.st.Tag, image: -1, valid: true}
		tk, err := srv.submit(ctx, pub, true, p.seg, srv.shards[p.seg].src.Index(p.st.Seq))
		if err != nil {
			submitErr = err
			break
		}
		tickets = append(tickets, issued{pendingItem: p, tk: tk})
	}
	if err := srv.Close(); err != nil && submitErr == nil {
		submitErr = err
	}
	// Deliver relabeled results in (segment, journal) order.
	sort.SliceStable(tickets, func(a, b int) bool {
		if tickets[a].seg != tickets[b].seg {
			return tickets[a].seg < tickets[b].seg
		}
		return tickets[a].st.Seq < tickets[b].st.Seq
	})
	for _, is := range tickets {
		res, err := is.tk.Wait(ctx)
		if err != nil && submitErr == nil {
			submitErr = err
		}
		if res != nil {
			report.Relabeled = append(report.Relabeled, res)
			report.Segments[is.seg].Relabeled++
		}
	}
	return report, submitErr
}
