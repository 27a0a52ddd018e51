package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// batchIDs hands out process-unique batch identities so fan-in links
// correlate waiter spans across shards and traces.
var batchIDs atomic.Int64

// NextBatchID allocates a fresh nonzero batch id.
func NextBatchID() int64 { return batchIDs.Add(1) }

// A BatchRef is the telemetry handoff between a batch-lane waiter and
// the batcher: the batcher fills it before signalling the waiter's
// done channel (the channel close is the happens-before edge), and the
// waiter then records its batch-hold and exec spans from the sealed
// timestamps. A waiter passes nil when tracing is off.
type BatchRef struct {
	Batch int64     // shared batch identity
	N     int       // coalesced size
	Seal  time.Time // execution began: the batch's nominal start (grant-sealed: the grant's instant)
	Flush string    // flush cause: "size" | "hold" | "grant" (memory granted)
}

// Span stage names. The serve layer opens one span per lifecycle stage
// (admission → queue wait → per-round select → reserve wait →
// batch-lane hold → model exec → commit), all parented under the item's
// root span, so a trace answers "where did this item's deadline budget
// go" stage by stage. It records them around — never inside — the
// policy, so tracing can't perturb scheduling.
const (
	SpanItem        = "item"         // root: admission → publish
	SpanQueueWait   = "queue-wait"   // arrival → dequeue by a worker
	SpanSelect      = "select"       // one policy.Next ask: Model is the pick, -1 a decline
	SpanReserveWait = "reserve-wait" // blocking on the memory accountant (Note "stall": a declined ask waiting for a release)
	SpanBatchHold   = "batch-hold"   // enqueued on a batch lane → seal
	SpanExec        = "exec"         // model execution (direct or batched)
	SpanCommit      = "commit"       // corpus commit incl. journal append/fsync
	SpanOther       = "other"        // CriticalPath: root time no child covers
)

// maxTraceSpans bounds one item's trace so a pathological schedule (many
// memory stalls) cannot grow it without limit; overflow is counted in
// DroppedSpans, not silently dropped.
const maxTraceSpans = 192

// A SpanLink is a causality edge that crosses shard boundaries: steal
// provenance, home shard → executing shard. (Batch fan-in needs no link:
// every coalesced waiter's spans share SpanAttrs.Batch.)
type SpanLink struct {
	Kind string `json:"kind"` // "steal"
	From int    `json:"from"`
	To   int    `json:"to"`
}

// A Span is one timed stage of an item's lifecycle. Offsets are
// measured from the trace origin (the item's arrival) on both clocks:
// StartUS/EndUS in wall microseconds, VStartMS/VEndMS in virtual
// milliseconds (wall ÷ TimeScale), so a 0.01× simulated run and a
// real-time run of the same schedule produce identical virtual
// columns. EndUS is -1 while the span is open; Tracer.End closes any
// span still open at publish.
type Span struct {
	ID       int        `json:"id"`
	Parent   int        `json:"parent"` // -1 for the root span
	Name     string     `json:"name"`
	Model    int        `json:"model"` // -1 when not model-specific
	StartUS  int64      `json:"start_us"`
	EndUS    int64      `json:"end_us"`
	VStartMS float64    `json:"vstart_ms"`
	VEndMS   float64    `json:"vend_ms"`
	Links    []SpanLink `json:"links,omitempty"`
	SpanAttrs
}

// SpanAttrs is what a stage knew beyond its timing, set with Annotate.
// RemainingMS and AvailMemMB are the two numbers Algorithms 1 and 2
// decide from — the deadline budget left and the accountant's headroom —
// as the policy saw them on a select ask (also on the stall that follows
// a decline; commit records the budget the schedule left unspent). An
// unbounded constraint (no deadline, no memory budget: +Inf inside the
// scheduler) records as -1, because encoding/json rejects non-finite
// values and every trace consumer marshals spans. Zero values are left
// out of the JSON, so on those spans an absent field reads as 0.
type SpanAttrs struct {
	RemainingMS float64 `json:"remaining_ms,omitempty"`
	AvailMemMB  float64 `json:"avail_mem_mb,omitempty"`
	Queued      int     `json:"queued,omitempty"`  // batch-hold: lane occupancy at enqueue
	Batch       int64   `json:"batch,omitempty"`   // batch id shared by every coalesced waiter
	BatchN      int     `json:"batch_n,omitempty"` // coalesced batch size
	Note        string  `json:"note,omitempty"`    // flush cause, "stall", or why a select declined
}

// Stamp returns the wall clock now — and the zero time on a nil trace,
// so the disabled path never reads the clock (the span analogue of
// Started).
func (t *ItemTrace) Stamp() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// SetShards records provenance before Root: the shard the router placed
// the item on and the one executing it. They differ exactly when the
// item was stolen.
func (t *ItemTrace) SetShards(home, shard int) {
	if t == nil {
		return
	}
	t.Home, t.Shard, t.Stolen = home, shard, home != shard
}

// Root opens span 0 ("item") with the trace origin set to arrival (the
// admission instant); a zero or future arrival falls back to now.
// Idempotent: a second call returns the existing root. Returns -1 on a
// nil trace. A stolen trace's root span carries the home→executing-shard
// link.
func (t *ItemTrace) Root(arrival time.Time) int {
	if t == nil {
		return -1
	}
	if len(t.Spans) > 0 {
		return 0
	}
	now := time.Now()
	if arrival.IsZero() || arrival.After(now) {
		arrival = now
	}
	t.origin = arrival
	t.BeginUnixUS = arrival.UnixMicro()
	root := Span{Parent: -1, Name: SpanItem, Model: -1, EndUS: -1, VEndMS: -1}
	if t.Stolen {
		root.Links = append(root.Links, SpanLink{Kind: "steal", From: t.Home, To: t.Shard})
	}
	return t.addSpan(root)
}

// StartSpan opens a child span at now and returns its id (-1 when the
// trace is nil or the span cap is hit). Close it with EndSpan.
func (t *ItemTrace) StartSpan(name string, parent, model int) int {
	if t == nil {
		return -1
	}
	return t.StartSpanAt(name, parent, model, time.Now())
}

// StartSpanAt opens a child span with an explicit start stamp (e.g. the
// queue-wait span starts at arrival). A zero stamp means now.
func (t *ItemTrace) StartSpanAt(name string, parent, model int, start time.Time) int {
	if t == nil {
		return -1
	}
	if start.IsZero() {
		start = time.Now()
	}
	if len(t.Spans) == 0 {
		t.Root(start)
	}
	return t.addSpan(Span{
		Parent:   parent,
		Name:     name,
		Model:    model,
		StartUS:  t.us(start),
		VStartMS: t.vms(start),
		EndUS:    -1,
		VEndMS:   -1,
	})
}

// EndSpan closes span id at now (no-op on nil, out-of-range, or
// already-closed spans — a -1 id from a capped StartSpan is safe).
func (t *ItemTrace) EndSpan(id int) {
	if t == nil {
		return
	}
	t.EndSpanAt(id, time.Now())
}

// EndSpanAt closes span id with an explicit end stamp.
func (t *ItemTrace) EndSpanAt(id int, end time.Time) {
	if t == nil || id < 0 || id >= len(t.Spans) || t.Spans[id].EndUS >= 0 {
		return
	}
	if end.IsZero() {
		end = time.Now()
	}
	sp := &t.Spans[id]
	sp.EndUS = t.us(end)
	sp.VEndMS = t.vms(end)
	if sp.EndUS < sp.StartUS {
		sp.EndUS, sp.VEndMS = sp.StartUS, sp.VStartMS
	}
}

// SpanBetween records a fully-closed span from two explicit stamps —
// for stages whose boundaries were captured before the span could be
// opened (batch hold: enqueue → seal). Returns the span id.
func (t *ItemTrace) SpanBetween(name string, parent, model int, start, end time.Time) int {
	id := t.StartSpanAt(name, parent, model, start)
	t.EndSpanAt(id, end)
	return id
}

// Annotate sets span id's attributes, clamping non-finite constraint
// values to -1. No-op on nil or an invalid id (a -1 from a capped
// StartSpan is safe).
func (t *ItemTrace) Annotate(id int, a SpanAttrs) {
	if t == nil || id < 0 || id >= len(t.Spans) {
		return
	}
	if math.IsInf(a.RemainingMS, 0) || math.IsNaN(a.RemainingMS) {
		a.RemainingMS = -1
	}
	if math.IsInf(a.AvailMemMB, 0) || math.IsNaN(a.AvailMemMB) {
		a.AvailMemMB = -1
	}
	t.Spans[id].SpanAttrs = a
}

// addSpan appends one span, assigning its id (caps at maxTraceSpans).
func (t *ItemTrace) addSpan(sp Span) int {
	if len(t.Spans) >= maxTraceSpans {
		t.DroppedSpans++
		return -1
	}
	sp.ID = len(t.Spans)
	t.Spans = append(t.Spans, sp)
	return sp.ID
}

// closeOpenSpans closes every span still open (EndUS < 0) at now —
// called by Tracer.End so the root span always covers the full
// lifetime.
func (t *ItemTrace) closeOpenSpans() {
	if t == nil || len(t.Spans) == 0 {
		return
	}
	now := time.Now()
	for i := range t.Spans {
		t.EndSpanAt(i, now) // no-op on a closed span
	}
}

// us converts a wall stamp to microseconds since the trace origin.
func (t *ItemTrace) us(at time.Time) int64 {
	if t.origin.IsZero() {
		return 0
	}
	return at.Sub(t.origin).Microseconds()
}

// vms converts a wall stamp to virtual milliseconds since the origin
// (wall elapsed ÷ TimeScale).
func (t *ItemTrace) vms(at time.Time) float64 {
	if t.origin.IsZero() {
		return 0
	}
	scale := t.TimeScale
	if scale <= 0 {
		scale = 1
	}
	return at.Sub(t.origin).Seconds() * 1000 / scale
}

// A PathStage is one attributed stage of an item's critical path: how
// much of the item's total latency this stage accounts for, on both
// clocks, and as a fraction of the whole.
type PathStage struct {
	Name   string  `json:"name"`
	Model  int     `json:"model"` // -1 when aggregated over models
	WallUS int64   `json:"wall_us"`
	VirtMS float64 `json:"virt_ms"`
	Frac   float64 `json:"frac"`
}

// CriticalPath attributes an item's end-to-end latency to its stages —
// the answer to "where did this item's deadline budget go". Every
// instant of the root span is attributed to the latest-started depth-1
// child covering it (so a reserve-wait nested inside an execution round
// wins over the round), and instants no child covers go to "other"
// (scheduler CPU, loop overhead). Stages aggregate by (name, model) and
// sort by descending wall time. Returns nil for a trace with no spans.
func (t ItemTrace) CriticalPath() []PathStage {
	if len(t.Spans) == 0 {
		return nil
	}
	root := t.Spans[0]
	if root.EndUS <= root.StartUS {
		return nil
	}
	// Depth-1 children, clamped to the root interval.
	type iv struct {
		start, end int64
		name       string
		model      int
	}
	var children []iv
	for _, sp := range t.Spans[1:] {
		if sp.Parent != root.ID || sp.EndUS < sp.StartUS {
			continue
		}
		c := iv{start: max(sp.StartUS, root.StartUS), end: min(sp.EndUS, root.EndUS), name: sp.Name, model: sp.Model}
		if sp.Name == SpanSelect {
			// A select span's Model is the ask's answer, not a stage
			// identity: the item's selection overhead (the paper's
			// Table III number) is one stage.
			c.model = -1
		}
		if c.end >= c.start {
			children = append(children, c)
		}
	}
	// Sweep the root interval over the sorted boundary set; each
	// sub-interval is attributed to the covering child that started
	// last (ties: the one recorded later, i.e. the more deeply timed
	// stage).
	bounds := []int64{root.StartUS, root.EndUS}
	for _, c := range children {
		bounds = append(bounds, c.start, c.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	type key struct {
		name  string
		model int
	}
	acc := make(map[key]int64)
	var order []key
	note := func(k key, us int64) {
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] += us
	}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo || hi <= root.StartUS || lo >= root.EndUS {
			continue
		}
		best := -1
		for j, c := range children {
			if c.start <= lo && c.end >= hi {
				if best < 0 || c.start > children[best].start || (c.start == children[best].start && j > best) {
					best = j
				}
			}
		}
		if best < 0 {
			note(key{SpanOther, -1}, hi-lo)
		} else {
			note(key{children[best].name, children[best].model}, hi-lo)
		}
	}
	total := root.EndUS - root.StartUS
	scale := t.TimeScale
	if scale <= 0 {
		scale = 1
	}
	out := make([]PathStage, 0, len(order))
	for _, k := range order {
		us := acc[k]
		out = append(out, PathStage{
			Name:   k.name,
			Model:  k.model,
			WallUS: us,
			VirtMS: float64(us) / 1000 / scale,
			Frac:   float64(us) / float64(total),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallUS > out[j].WallUS })
	return out
}

// WriteCriticalPath renders the critical-path attribution, the block
// examples/labelserver prints for its slowest traced item. Silent when
// the trace carries no spans.
func (t ItemTrace) WriteCriticalPath(w io.Writer, title string) {
	stages := t.CriticalPath()
	if len(stages) == 0 {
		return
	}
	label := t.Tag
	if label == "" {
		label = fmt.Sprintf("item %d", t.Item)
	}
	fmt.Fprintf(w, "%s (%s", title, label)
	if t.Stolen {
		fmt.Fprintf(w, ", stolen shard %d → %d", t.Home, t.Shard)
	}
	fmt.Fprintf(w, "):\n")
	var totalMS float64
	for _, st := range stages {
		totalMS += st.VirtMS
	}
	fmt.Fprintf(w, "  %-18s %8.1f ms simulated end to end\n", "total", totalMS)
	for _, st := range stages {
		name := st.Name
		if st.Model >= 0 {
			name = fmt.Sprintf("%s[m%d]", st.Name, st.Model)
		}
		fmt.Fprintf(w, "  %-18s %8.1f ms (%5.1f %%)\n", name, st.VirtMS, 100*st.Frac)
	}
}

// A StageSum is one stage's part of many items' critical paths: the mean
// wall microseconds it took per item, and its share of the items' summed
// latency.
type StageSum struct {
	Name      string  `json:"name"`
	USPerItem float64 `json:"us_per_item"`
	Share     float64 `json:"share"`
}

// StageSums attributes a set of items' latency to stages — where a
// workload's time goes, rather than one item's.
type StageSums struct {
	Items  int        `json:"items"` // traces with a critical path
	Stages []StageSum `json:"stages"`
}

// SumCriticalPaths sums CriticalPath over traces by stage name (models
// aggregated), sorted by descending time. Traces with no spans are
// skipped.
func SumCriticalPaths(traces []ItemTrace) StageSums {
	var (
		sums  StageSums
		total int64
		acc   = make(map[string]int64)
	)
	for _, tr := range traces {
		stages := tr.CriticalPath()
		if len(stages) == 0 {
			continue
		}
		sums.Items++
		for _, st := range stages {
			acc[st.Name] += st.WallUS
			total += st.WallUS
		}
	}
	for name, us := range acc {
		sums.Stages = append(sums.Stages, StageSum{
			Name:      name,
			USPerItem: float64(us) / float64(sums.Items),
			Share:     float64(us) / float64(max(total, 1)),
		})
	}
	sort.Slice(sums.Stages, func(i, j int) bool {
		a, b := sums.Stages[i], sums.Stages[j]
		return a.USPerItem > b.USPerItem || (a.USPerItem == b.USPerItem && a.Name < b.Name)
	})
	return sums
}

// Write renders the attribution, the block cmd/amsserve prints after
// its slowest item. Silent when no trace had a critical path.
func (s StageSums) Write(w io.Writer, title string) {
	if s.Items == 0 {
		return
	}
	fmt.Fprintf(w, "%s (%d items, wall clock):\n", title, s.Items)
	for _, st := range s.Stages {
		fmt.Fprintf(w, "  %-18s %8.1f µs/item (%5.1f %%)\n", st.Name, st.USPerItem, 100*st.Share)
	}
}
