// Package corpus is the durable ingestion corpus of the labeling server:
// it owns the lifetime of externally ingested items end to end, from
// admission to eviction to crash recovery.
//
// Every lifecycle event is appended to a write-ahead journal — the
// admitted scene, each memoized (item, model) output as inference lands,
// and a commit record when the item's schedule completes — so a server
// killed at an arbitrary point can reopen the journal and recover: items
// committed before the crash are re-served bit-identically from their
// persisted memos without re-running any model, and items admitted but
// not committed re-run only the models whose outputs never reached the
// journal.
//
// In-memory growth is bounded by refcounted eviction. An item holds one
// reference per in-flight schedule; once its result is committed and the
// last reference drops, its memoized outputs are reclaimed (the journal
// keeps the durable copy, and zoo inference is a pure function of the
// scene, so even a re-serve after eviction reproduces the same outputs).
// The MaxResident watermark turns this into admission backpressure: when
// the corpus holds that many resident items, AdmitWait blocks until an
// eviction frees a slot.
//
// An item's identity is its admit record without the sequence: the tag
// and every scene field, as the journal encodes them. AdmitWait admits a
// scene once per identity and otherwise returns the sequence it already
// has, and replay rebuilds that index, so resubmitting an item journals
// nothing new across restarts too.
//
// Each entry is its item's owner: a server runs the item on its own
// executor, Item(seq).Executor(), whose outputs are journaled as they
// land and whose commit journals the completion, so the corpus that
// admitted an item ends its lifecycle whichever shard runs it. Begin
// registers the schedule before it starts.
//
// A snapshot compacts the journal in place: it rewrites the journal with
// each item's admit record, persisted outputs and commit record once
// (so no output is ever lost across compactions) and renames the
// rewrite over the old file. A corpus is therefore one file in one
// format, and opening it is one replay, tolerating a torn final record.
package corpus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// ErrClosed follows Close.
var ErrClosed = errors.New("corpus: closed")

// errFull tells AdmitWait the corpus holds MaxResident resident items:
// it waits for an eviction, which committing in-flight items brings.
var errFull = errors.New("corpus: resident watermark reached")

// Options parameterizes a corpus.
type Options struct {
	// MaxResident, when positive, bounds the number of resident items
	// (items whose memoized outputs occupy memory: everything admitted
	// and not yet evicted). Admission past the watermark — of a new item,
	// or of a known one that was evicted — blocks (AdmitWait) until
	// evictions free slots. Zero means unbounded.
	MaxResident int
	// SnapshotEvery, when positive, compacts the journal (Snapshot)
	// automatically after every N commit records. Zero disables
	// automatic snapshots; Snapshot can still be called explicitly.
	SnapshotEvery int
	// SyncEveryN and SyncEveryMS enable group-commit fsync: a background
	// flusher syncs the journal whenever N records have accumulated since
	// the last sync (SyncEveryN) and at least every SyncEveryMS
	// milliseconds (SyncEveryMS), whichever fires first. Writers never
	// block on the flush — they keep appending while a batch syncs — so
	// durability against machine-level power loss costs one fsync per
	// batch instead of one per record. Both zero (the default) preserves
	// the original behavior: the journal is synced only on Close and
	// Snapshot, and an OS crash may lose the tail (a process crash alone
	// never does — the records are in the page cache).
	SyncEveryN  int
	SyncEveryMS float64
}

// check refuses options no corpus can run with. Open and OpenDir run it
// before they touch the disk, so both refuse them in one text and leave
// nothing behind.
func (opts Options) check() error {
	if opts.MaxResident < 0 || opts.SnapshotEvery < 0 || opts.SyncEveryN < 0 || opts.SyncEveryMS < 0 {
		return fmt.Errorf("corpus: negative option in %+v", opts)
	}
	// The flusher ticks every SyncEveryMS, which must scale to a positive
	// Duration: NewTicker panics on a zero one.
	if d := opts.SyncEveryMS * float64(time.Millisecond); opts.SyncEveryMS != 0 && !(d >= 1 && d < math.MaxInt64) {
		return fmt.Errorf("corpus: sync interval %v ms does not fit a time.Duration of at least 1 ns", opts.SyncEveryMS)
	}
	return nil
}

// entry is one item's corpus-side state. The scene and the commit
// metadata stay for the corpus's lifetime (they are small); the memoized
// outputs — the bulk — live in the item and are reclaimed by eviction.
type entry struct {
	c    *Corpus
	seq  int
	tag  string
	item *oracle.ExternalItem

	refs       int  // in-flight schedules holding the item
	committed  bool // a commit record has been journaled
	evicted    bool // the memo is currently reclaimed
	executed   []int
	scheduleMS float64
}

// Corpus is a durable, evictable collection of ingested items backed by
// a write-ahead journal. Safe for concurrent use.
type Corpus struct {
	z    *zoo.Zoo
	path string
	opts Options

	mu               sync.Mutex
	f                *os.File
	entries          []*entry
	resident         int
	committed        int
	evictedTotal     int64
	journalBytes     int64
	journalRecords   int64
	snapshots        int64
	commitsSinceSnap int
	closed           bool
	ids              map[string]int // identity (appendAdmit's bytes) -> first sequence
	key              []byte         // reused identity buffer of admitLocked and apply
	buf              []byte         // reused frame buffer of writeRecord
	err              error          // sticky journal write error
	space            chan struct{}  // wakes blocked AdmitWaits; nil until one blocks (see AdmitWait)

	// Group-commit fsync state (nil channels when disabled).
	unsynced  int64         // records appended since the last sync
	syncs     int64         // group-commit syncs performed
	syncReq   chan struct{} // capacity 1: nudges the flusher at SyncEveryN
	flushStop chan struct{}
	flushDone chan struct{}

	metrics *Metrics // durability telemetry; nil disables (see SetMetrics)
}

// Stats is a point-in-time summary of the corpus.
type Stats struct {
	Items          int   // items the corpus tracks (admitted, ever)
	Resident       int   // items whose memoized outputs occupy memory
	Committed      int   // items with a journaled completion
	Evicted        int64 // memo reclamations since open
	JournalBytes   int64 // journal size, header included (a snapshot's compacted size after one)
	JournalRecords int64 // records appended since open
	Snapshots      int64 // compacting snapshots taken since open
	Syncs          int64 // group-commit fsync batches since open
	Unsynced       int64 // records appended and not yet fsynced
}

// ItemState is one entry's externally visible lifecycle state.
type ItemState struct {
	Seq        int
	Tag        string
	Committed  bool
	Resident   bool
	MemoCount  int   // model outputs currently memoized in memory
	Executed   []int // the committed schedule's models, in execution order
	ScheduleMS float64
}

// Open opens (or creates) the corpus journaled at path against the zoo
// and replays the journal; a torn record at its tail — the signature of
// a crash mid-write — is discarded by truncating the file to the last
// complete record, after which appending resumes there. A damaged record
// before the tail fails the open with ErrCorrupt. A corpus an earlier
// build wrote — a version-1 journal, or a snapshot blob at path+".snap"
// whose records come first — is replayed and then compacted at once into
// a version-2 journal, and the blob is deleted.
func Open(z *zoo.Zoo, path string, opts Options) (*Corpus, error) {
	if z == nil {
		return nil, errors.New("corpus: nil zoo")
	}
	if err := opts.check(); err != nil {
		return nil, err
	}
	c := &Corpus{z: z, path: path, opts: opts, ids: make(map[string]int)}
	legacy, err := readSnapshotV1(path + ".snap")
	if err != nil {
		return nil, err
	}
	if c.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return nil, fmt.Errorf("corpus: open journal: %w", err)
	}
	if err := c.replay(legacy); err != nil {
		_ = c.f.Close()
		return nil, err
	}
	c.startFlusher()
	return c, nil
}

// replay applies a legacy snapshot's records and then the freshly opened
// journal's, and leaves the journal positioned for appending, compacted
// first when the corpus holds a legacy format.
func (c *Corpus) replay(legacy []record) error {
	data, err := os.ReadFile(c.path)
	if err != nil {
		return fmt.Errorf("corpus: read journal: %w", err)
	}
	if len(data) == 0 {
		data = header(journalMagic, journalVersion)
		if _, err := c.f.Write(data); err != nil {
			return fmt.Errorf("corpus: write journal header: %w", err)
		}
	}
	recs, end, version, err := readJournal(data, "journal "+c.path)
	if err != nil {
		return err
	}
	for _, rs := range [][]record{legacy, recs} {
		for i := range rs {
			c.apply(&rs[i])
		}
	}
	if end < len(data) {
		// Torn tail: drop it so appended records start on a clean frame.
		if err := c.f.Truncate(int64(end)); err != nil {
			return fmt.Errorf("corpus: truncate torn journal tail: %w", err)
		}
	}
	if _, err := c.f.Seek(int64(end), 0); err != nil {
		return fmt.Errorf("corpus: seek journal end: %w", err)
	}
	c.journalBytes = int64(end)
	if version == journalVersion && legacy == nil {
		return nil
	}
	// A legacy format is read, never appended to: fold it into a
	// version-2 journal now. A crash before the blob is deleted replays
	// it again, harmlessly: apply skips the sequences it already knows.
	if err := c.snapshotLocked(); err != nil {
		return fmt.Errorf("corpus: compact version-1 corpus: %w", err)
	}
	if legacy != nil {
		if err := os.Remove(c.path + ".snap"); err != nil {
			return fmt.Errorf("corpus: remove compacted snapshot: %w", err)
		}
	}
	return nil
}

// startFlusher launches the group-commit fsync goroutine when either
// sync option is set.
func (c *Corpus) startFlusher() {
	if c.opts.SyncEveryN <= 0 && c.opts.SyncEveryMS <= 0 {
		return
	}
	c.syncReq = make(chan struct{}, 1)
	c.flushStop = make(chan struct{})
	c.flushDone = make(chan struct{})
	go c.flusher()
}

// flusher is the group-commit loop: it syncs the journal on the
// SyncEveryN nudge from writeRecord, on the SyncEveryMS ticker, and
// exits on Close (which performs the final sync itself, after every
// writer is fenced out by the closed flag).
func (c *Corpus) flusher() {
	defer close(c.flushDone)
	var tickC <-chan time.Time
	if c.opts.SyncEveryMS > 0 {
		tick := time.NewTicker(time.Duration(c.opts.SyncEveryMS * float64(time.Millisecond)))
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-c.flushStop:
			return
		case <-c.syncReq:
			c.syncJournal()
		case <-tickC:
			c.syncJournal()
		}
	}
}

// syncJournal fsyncs the batch of records appended since the last sync.
// The Sync runs outside c.mu — writers keep appending to the journal
// while the batch flushes; those appends simply land in the next batch.
func (c *Corpus) syncJournal() {
	c.mu.Lock()
	if c.closed || c.err != nil || c.unsynced == 0 {
		c.mu.Unlock()
		return
	}
	pending := c.unsynced
	f := c.f
	m := c.metrics
	c.mu.Unlock()
	t0 := m.fsyncStart()
	err := f.Sync()
	m.fsyncDone(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f != c.f {
		// A compaction replaced the handle, having fsynced everything
		// it held; the result, even an error on the closed handle, is moot.
		return
	}
	if err != nil {
		if c.err == nil && !c.closed {
			c.err = fmt.Errorf("corpus: journal sync: %w", err)
		}
		return
	}
	c.syncs++
	c.unsynced -= pending
}

// apply folds one replayed journal record into the in-memory state.
// Records that reference unknown sequence numbers (possible only with a
// corrupt-but-decodable body) are ignored rather than fatal: the journal
// is the recovery path, and salvaging every valid record beats refusing
// the whole corpus.
func (c *Corpus) apply(rec *record) {
	switch rec.Kind {
	case kindAdmit:
		if rec.Seq < len(c.entries) {
			return // already known: a legacy snapshot's overlap with its journal
		}
		if rec.Seq > len(c.entries) {
			return // gap: unusable without its admit record's predecessors
		}
		c.key = appendAdmit(c.key[:0], rec.Tag, &rec.Scene)
		c.addEntry(rec.Scene, rec.Tag, c.key)
	case kindOutput:
		if rec.Seq < len(c.entries) && rec.Model >= 0 && rec.Model < len(c.z.Models) {
			c.entries[rec.Seq].item.Preload(rec.Model, rec.Out)
		}
	case kindCommit:
		if rec.Seq < len(c.entries) {
			e := c.entries[rec.Seq]
			if !e.committed {
				c.committed++
			}
			e.committed = true
			e.executed = rec.Executed
			e.scheduleMS = rec.ScheduleMS
		}
	}
}

// addEntry creates entry state for a scene, indexes it under its
// identity key unless an earlier sequence holds that key (duplicates an
// older build journaled replay as separate entries), and installs the
// entry as the item's owner: it journals each memoized output as
// inference lands and each completed schedule. Caller holds c.mu (or is
// single-threaded setup).
func (c *Corpus) addEntry(scene synth.Scene, tag string, key []byte) *entry {
	e := &entry{c: c, seq: len(c.entries), tag: tag, item: oracle.NewExternalItem(c.z, scene)}
	e.item.SetHook(e)
	if _, dup := c.ids[string(key)]; !dup {
		c.ids[string(key)] = e.seq
	}
	c.entries = append(c.entries, e)
	c.resident++
	return e
}

// OutputComputed journals each output the entry's item computes.
func (e *entry) OutputComputed(m int, out zoo.Output) {
	e.c.journalOutput(e.seq, m, out)
}

// ScheduleCommitted commits a completed schedule of the entry's item.
func (e *entry) ScheduleCommitted(executed []int, scheduleMS float64) error {
	return e.c.Commit(e.seq, executed, scheduleMS)
}

// admitLocked is the admission body: it finds the scene's entry or
// admits it, taking a watermark slot for anything not resident. The
// caller holds c.mu.
func (c *Corpus) admitLocked(scene *synth.Scene, tag string) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if c.err != nil {
		return 0, c.err
	}
	c.key = appendAdmit(c.key[:0], tag, scene)
	seq, known := c.ids[string(c.key)]
	if known && !c.entries[seq].evicted {
		return seq, nil
	}
	if c.opts.MaxResident > 0 && c.resident >= c.opts.MaxResident {
		return 0, errFull
	}
	if known {
		c.entries[seq].evicted = false
		c.resident++
		return seq, nil
	}
	e := c.addEntry(*scene, tag, c.key)
	if err := c.writeRecord(&record{Kind: kindAdmit, Seq: e.seq, Tag: tag, Scene: *scene}); err != nil {
		return 0, err
	}
	return e.seq, nil
}

// AdmitWait admits one scene, or finds the sequence it already has: a
// scene admitted before under the same tag — in this process or, through
// replay, an earlier one — is not journaled again. A resident hit returns
// at once. A new admission, and a hit on an evicted entry (which becomes
// resident again), take a watermark slot: they block while the watermark
// is reached until an eviction frees one, the context is cancelled
// (returning ctx.Err()), or the corpus closes (returning ErrClosed). The
// admission is tried before the context is consulted, so a cancelled
// context still admits what fits. Only a blocked call makes a wakeup
// channel; an admission that fits allocates none, and neither does an
// eviction nobody waits on.
func (c *Corpus) AdmitWait(ctx context.Context, scene synth.Scene, tag string) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		// The wakeup channel is made or captured under the same lock
		// that observes fullness: an eviction (or Close) after the unlock
		// closes exactly this channel, so no wakeup can be lost between
		// the failed attempt and the wait.
		c.mu.Lock()
		seq, err := c.admitLocked(&scene, tag)
		if !errors.Is(err, errFull) {
			c.mu.Unlock()
			return seq, err
		}
		if c.space == nil {
			c.space = make(chan struct{})
		}
		space := c.space
		c.mu.Unlock()
		select {
		case <-space:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// journalOutput is the persistence hook: one freshly memoized (item,
// model) output lands in the journal. Write failures stick and surface
// on the next Admit/Commit/Close. It also un-evicts bookkeeping when an
// evicted item's output is recomputed, since its memo occupies memory
// again: an item run by sequence without AdmitWait, or one a concurrent
// schedule's commit evicted between its AdmitWait and its Begin. That
// path bypasses the watermark; AdmitWait's does not.
func (c *Corpus) journalOutput(seq, m int, out zoo.Output) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return
	}
	e := c.entries[seq]
	if e.evicted {
		e.evicted = false
		c.resident++
	}
	_ = c.writeRecord(&record{Kind: kindOutput, Seq: seq, Model: m, Out: out})
}

// Begin registers one in-flight schedule for the item: the refcount that
// holds its memo resident until Commit.
func (c *Corpus) Begin(seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < 0 || seq >= len(c.entries) {
		return
	}
	c.entries[seq].refs++
}

// Commit journals the item's completion — the explicit end of its
// lifetime: the result is final, readers received their copies, and the
// memo may be reclaimed once the last concurrent schedule commits too.
// Commit is idempotent per schedule; a re-serve of a committed item
// journals a fresh (identical) commit record. Each Commit ends one
// Begin: a Commit with no schedule in flight is an error and changes
// nothing.
func (c *Corpus) Commit(seq int, executed []int, scheduleMS float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < 0 || seq >= len(c.entries) {
		return fmt.Errorf("corpus: commit of unknown item %d", seq)
	}
	if c.closed {
		return ErrClosed
	}
	e := c.entries[seq]
	if e.refs == 0 {
		return fmt.Errorf("corpus: commit of item %d with no schedule in flight", seq)
	}
	e.refs--
	if !e.committed {
		c.committed++
	}
	e.committed = true
	e.executed = append([]int(nil), executed...)
	e.scheduleMS = scheduleMS
	err := c.writeRecord(&record{Kind: kindCommit, Seq: seq, Executed: e.executed, ScheduleMS: scheduleMS})
	c.maybeEvict(e)
	c.commitsSinceSnap++
	if err == nil && c.opts.SnapshotEvery > 0 && c.commitsSinceSnap >= c.opts.SnapshotEvery {
		err = c.snapshotLocked()
	}
	return err
}

// maybeEvict reclaims the entry's memo and its watermark slot, waking
// admission waiters, when its result is committed and no in-flight
// schedule holds it. Caller holds c.mu.
func (c *Corpus) maybeEvict(e *entry) {
	if !e.committed || e.refs > 0 || e.evicted {
		return
	}
	e.item.Evict()
	e.evicted = true
	c.resident--
	c.evictedTotal++
	c.wakeAdmitters()
}

// wakeAdmitters wakes every AdmitWait blocked on the watermark, if any
// is: the next blocked call makes a fresh channel. Caller holds c.mu.
func (c *Corpus) wakeAdmitters() {
	if c.space != nil {
		close(c.space)
		c.space = nil
	}
}

// ReclaimCommitted evicts every committed item no schedule holds —
// called after recovery has read what it needs, so a reopened corpus
// does not pin its whole history in memory.
func (c *Corpus) ReclaimCommitted() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.maybeEvict(e)
	}
}

// writeRecord appends one record to the journal. Caller holds c.mu.
// Failures stick: a corpus that cannot journal refuses further
// admissions rather than silently degrading to memory-only.
func (c *Corpus) writeRecord(rec *record) error {
	if c.err != nil {
		return c.err
	}
	t0 := c.metrics.appendStart()
	c.buf = appendRecord(c.buf[:0], rec)
	if _, err := c.f.Write(c.buf); err != nil {
		c.err = fmt.Errorf("corpus: journal write: %w", err)
		return c.err
	}
	c.metrics.appendDone(t0)
	c.journalBytes += int64(len(c.buf))
	c.journalRecords++
	c.unsynced++
	if c.opts.SyncEveryN > 0 && c.unsynced >= int64(c.opts.SyncEveryN) && c.syncReq != nil {
		select {
		case c.syncReq <- struct{}{}:
		default: // a nudge is already pending
		}
	}
	return nil
}

// Item returns the managed item for a sequence number — the item a
// server runs through its Executor, and whose memoized outputs recovery
// reads.
func (c *Corpus) Item(seq int) *oracle.ExternalItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[seq].item
}

// States returns every item's lifecycle state in sequence order.
func (c *Corpus) States() []ItemState {
	c.mu.Lock()
	defer c.mu.Unlock()
	states := make([]ItemState, len(c.entries))
	for i, e := range c.entries {
		states[i] = ItemState{
			Seq:        e.seq,
			Tag:        e.tag,
			Committed:  e.committed,
			Resident:   !e.evicted,
			MemoCount:  e.item.MemoCount(),
			Executed:   append([]int(nil), e.executed...),
			ScheduleMS: e.scheduleMS,
		}
	}
	return states
}

// Stats returns a point-in-time summary.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Items:          len(c.entries),
		Resident:       c.resident,
		Committed:      c.committed,
		Evicted:        c.evictedTotal,
		JournalBytes:   c.journalBytes,
		JournalRecords: c.journalRecords,
		Snapshots:      c.snapshots,
		Syncs:          c.syncs,
		Unsynced:       c.unsynced,
	}
}

// Close syncs and closes the journal. The corpus refuses further
// admissions and commits; a sticky journal write error surfaces here.
func (c *Corpus) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	// Wake every AdmitWait blocked on the watermark: their next attempt
	// returns ErrClosed.
	c.wakeAdmitters()
	err := c.err
	f := c.f
	c.mu.Unlock()
	// Stop the group-commit flusher before the final sync. The closed
	// flag fences out every writer, so the Sync below covers the whole
	// journal, and the flusher never touches a closed file.
	if c.flushStop != nil {
		close(c.flushStop)
		<-c.flushDone
	}
	// The final fsync and close run outside c.mu: with the closed flag
	// set and the flusher drained the file is quiescent, and holding the
	// corpus mutex across disk latency is exactly the blocking-under-lock
	// bug class the group-commit rework removed (amsvet: lockblock).
	// f is nil after a compaction failed to reopen the journal; Sync and
	// Close then return ErrInvalid, which the sticky c.err outranks.
	if syncErr := f.Sync(); err == nil && syncErr != nil {
		err = fmt.Errorf("corpus: sync journal: %w", syncErr)
	}
	if closeErr := f.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("corpus: close journal: %w", closeErr)
	}
	c.mu.Lock()
	c.unsynced = 0
	c.mu.Unlock()
	return err
}
