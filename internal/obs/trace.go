package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// An ItemTrace is one item's trace record: the span tree of its
// lifecycle stages, with each scheduling decision's constraint values
// carried as attributes of the span that timed it (see span.go). It is
// built by a single worker goroutine and published to the Tracer's ring
// at finish; a nil ItemTrace (tracing disabled) no-ops every method.
type ItemTrace struct {
	Item int    `json:"item"`
	Tag  string `json:"tag,omitempty"`
	Seq  int64  `json:"seq"`

	// Shard is the shard that executed the item; Home is where the router
	// first placed it — they differ exactly when the item was stolen, and
	// the root span then carries a home→executing-shard causality link.
	Shard        int     `json:"shard"`
	Home         int     `json:"home"`
	Stolen       bool    `json:"stolen,omitempty"`
	BeginUnixUS  int64   `json:"begin_unix_us,omitempty"`
	TimeScale    float64 `json:"time_scale,omitempty"`
	Spans        []Span  `json:"spans,omitempty"`
	DroppedSpans int     `json:"dropped_spans,omitempty"` // spans past maxTraceSpans

	// origin is the wall-clock zero every span offset is measured from
	// (the item's arrival); it survives the by-value publish into the
	// ring but is deliberately kept out of the JSON payload.
	origin time.Time
}

// Tracer is a bounded ring of completed item traces. Begin hands out an
// ItemTrace, End publishes it; the ring keeps the most recent `capacity`
// traces for /tracez and per-ticket retrieval. A nil Tracer no-ops
// everything and Begins nil ItemTraces.
//
// Traces are recycled: End takes the *ItemTrace back, and a later Begin
// hands it out again, so a caller must not touch a trace after End.
// Once the ring is full, the span array of the trace a publish evicts is
// cleared and reused by the next trace Begin hands out, so a served item
// allocates no trace in steady state. Readers (Recent, ByTag and
// everything built on them) get copies that share nothing the tracer
// reuses. There is no sync.Pool: the free list is bounded by the traces
// in flight at once, and a Pool would drop entries at random.
type Tracer struct {
	mu      sync.Mutex
	ring    []ItemTrace
	next    int
	seq     int64
	evicted int64 // ring overwrites: traces lost to capacity
	dropped int64 // spans dropped inside published traces
	scale   float64
	models  []string
	free    []*ItemTrace // published traces Begin hands out again
}

// NewTracer returns a tracer retaining the most recent capacity traces
// (a small default is applied when capacity is not positive).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{ring: make([]ItemTrace, 0, capacity), scale: 1}
}

// SetTimeScale tells the tracer the server's TimeScale so span virtual
// clocks (wall elapsed ÷ scale) read in simulated time. Call before
// serving; no-op on nil or non-positive scale.
func (t *Tracer) SetTimeScale(scale float64) {
	if t == nil || scale <= 0 {
		return
	}
	t.mu.Lock()
	t.scale = scale
	t.mu.Unlock()
}

// SetModelNames supplies human-readable model names for trace exports
// (Chrome span titles); index = model id. No-op on nil.
func (t *Tracer) SetModelNames(names []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.models = append([]string(nil), names...)
	t.mu.Unlock()
}

// modelName renders a model id for export payloads.
func (t *Tracer) modelName(m int) string {
	if t == nil || m < 0 {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m < len(t.models) {
		return t.models[m]
	}
	return ""
}

// Begin starts a trace for one item (nil when the tracer is nil). The
// trace is a recycled one when End has returned any: every field is
// reset, and only the span array's capacity is kept.
func (t *Tracer) Begin(item int, tag string) *ItemTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seq++
	var tr *ItemTrace
	if n := len(t.free); n > 0 {
		tr = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		tr = new(ItemTrace)
	}
	*tr = ItemTrace{Item: item, Tag: tag, Seq: t.seq, TimeScale: t.scale, Spans: tr.Spans[:0]}
	t.mu.Unlock()
	return tr
}

// End publishes a completed trace into the ring (no-op when either side
// is nil). Any still-open spans — the root span in particular — are
// closed at the publish instant. The ring keeps a copy; tr itself goes
// back to the tracer for a later Begin, so the caller must not touch it
// after End. When the publish evicts the oldest resident trace, tr takes
// over the evicted span array, cleared.
func (t *Tracer) End(tr *ItemTrace) {
	if t == nil || tr == nil {
		return
	}
	tr.closeOpenSpans()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += int64(tr.DroppedSpans)
	var spare []Span
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, *tr)
	} else {
		t.evicted++
		spare = t.ring[t.next].Spans
		clear(spare)
		t.ring[t.next] = *tr
		t.next = (t.next + 1) % len(t.ring)
	}
	tr.Spans = spare[:0]
	t.free = append(t.free, tr)
}

// Evicted reports how many published traces have been overwritten by
// ring wraparound — silent trace loss made visible (0 on nil).
func (t *Tracer) Evicted() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// DroppedTotal reports the cumulative spans dropped to the per-trace cap
// across all published traces (0 on nil).
func (t *Tracer) DroppedTotal() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Capacity reports the ring's trace capacity (0 on nil).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return cap(t.ring)
}

// Recent returns copies of up to n resident traces, newest first. The
// copies share no span storage with the ring, so they stay valid however
// many traces are published after.
func (t *Tracer) Recent(n int) []ItemTrace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ItemTrace, 0, min(n, len(t.ring)))
	for i := 0; i < len(t.ring) && len(out) < n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx].clone())
	}
	return out
}

// ByTag returns a copy of the most recent resident trace carrying tag;
// like Recent's, it shares no span storage with the ring.
func (t *Tracer) ByTag(tag string) (ItemTrace, bool) {
	if t == nil {
		return ItemTrace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < len(t.ring); i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if t.ring[idx].Tag == tag {
			return t.ring[idx].clone(), true
		}
	}
	return ItemTrace{}, false
}

// clone copies a resident trace for a reader. The span array is the one
// thing the ring reuses; a span's Links are never written after publish
// (a recycled array is cleared, and a new root appends a fresh one), so
// the copies may share them.
func (t *ItemTrace) clone() ItemTrace {
	c := *t
	c.Spans = slices.Clone(t.Spans)
	return c
}

// choose returns the traces an export asks for: the most recent one
// carrying tag when tag is set, else up to n recent ones.
func (t *Tracer) choose(n int, tag string) []ItemTrace {
	if tag == "" {
		return t.Recent(n)
	}
	if tr, ok := t.ByTag(tag); ok {
		return []ItemTrace{tr}
	}
	return nil
}

// WriteJSON dumps up to n recent traces (optionally filtered to one
// tag) as an indented JSON array — the /tracez payload.
func (t *Tracer) WriteJSON(w io.Writer, n int, tag string) error {
	traces := t.choose(n, tag)
	if traces == nil {
		traces = []ItemTrace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traces)
}
