package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// publishTrace begins, fills and ends one trace whose every span carries
// the item id as its model, so a reader can tell a torn or aliased trace
// from a whole one: item i has 1+i%7 child spans, and an odd item was
// stolen (its root carries a link).
func publishTrace(tr *Tracer, item int) {
	it := tr.Begin(item, fmt.Sprintf("item-%d", item))
	it.SetShards(item%2, 0)
	root := it.Root(time.Now())
	for k := 0; k < 1+item%7; k++ {
		id := it.StartSpan(SpanExec, root, item)
		it.Annotate(id, SpanAttrs{RemainingMS: float64(item), BatchN: k, Note: "size"})
		it.EndSpan(id)
	}
	tr.End(it)
}

// checkWhole fails unless trace is exactly what publishTrace wrote for
// its item.
func checkWhole(t *testing.T, trace ItemTrace) {
	t.Helper()
	if err := torn(trace); err != nil {
		t.Fatal(err)
	}
}

// torn reports how trace differs from what publishTrace wrote for its
// item, or nil when it does not.
func torn(trace ItemTrace) error {
	item := trace.Item
	if trace.Tag != fmt.Sprintf("item-%d", item) || len(trace.Spans) != 2+item%7 || trace.Stolen != (item%2 == 1) {
		return fmt.Errorf("trace of item %d torn: tag %q, %d spans, stolen %v", item, trace.Tag, len(trace.Spans), trace.Stolen)
	}
	if links := trace.Spans[0].Links; trace.Stolen != (len(links) == 1) || (trace.Stolen && links[0].From != 1) {
		return fmt.Errorf("trace of item %d: root links %+v", item, links)
	}
	for k, sp := range trace.Spans[1:] {
		if sp.ID != k+1 || sp.Model != item || sp.RemainingMS != float64(item) || sp.BatchN != k || sp.EndUS < 0 {
			return fmt.Errorf("trace of item %d: span %d is %+v", item, k+1, sp)
		}
	}
	return nil
}

// TestTracesReadOutliveRecycling: a trace Recent or ByTag returned stays
// as it was after the ring has recycled every slot twice over, because
// the reader holds a copy and the tracer reuses only its own span arrays.
func TestTracesReadOutliveRecycling(t *testing.T) {
	const capacity = 4
	tr := NewTracer(capacity)
	for i := 0; i < capacity; i++ {
		publishTrace(tr, 10+i)
	}
	recent := tr.Recent(capacity)
	tagged, ok := tr.ByTag("item-11")
	if !ok || len(recent) != capacity {
		t.Fatalf("ByTag ok=%v, Recent returned %d traces", ok, len(recent))
	}
	before, err := json.Marshal(append(recent, tagged))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*capacity; i++ {
		publishTrace(tr, 100+i)
	}
	after, err := json.Marshal(append(recent, tagged))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("traces read before %d more publishes changed:\nbefore %s\nafter  %s", 2*capacity, before, after)
	}
	for _, trace := range tr.Recent(capacity) {
		checkWhole(t, trace)
	}
}

// TestBeginResetsARecycledTrace: a trace Begin hands out again keeps
// nothing of its last item but the span array's capacity.
func TestBeginResetsARecycledTrace(t *testing.T) {
	tr := NewTracer(1)
	tr.SetTimeScale(0.5)
	publishTrace(tr, 13) // stolen, with spans
	it := tr.Begin(0, "big")
	it.Root(time.Now())
	for i := 0; i < maxTraceSpans; i++ {
		it.StartSpan(SpanSelect, 0, -1)
	}
	tr.End(it) // evicts item 13: it takes over that span array
	again := tr.Begin(7, "fresh")
	if again != it {
		t.Fatal("Begin did not hand out the trace End took back")
	}
	if again.Item != 7 || again.Tag != "fresh" || again.Seq != 3 || again.TimeScale != 0.5 ||
		again.Stolen || again.Home != 0 || again.Shard != 0 || again.BeginUnixUS != 0 ||
		again.DroppedSpans != 0 || !again.origin.IsZero() || len(again.Spans) != 0 {
		t.Fatalf("recycled trace not reset: %+v", *again)
	}
	if cap(again.Spans) == 0 {
		t.Fatal("recycled trace lost the evicted span array")
	}
	for _, sp := range again.Spans[:cap(again.Spans)] {
		if sp.Name != "" || sp.Links != nil {
			t.Fatalf("recycled span array not cleared: %+v", sp)
		}
	}
	tr.End(again)
}

// TestTracerUnended: a trace Begin handed out counts as unended until
// End publishes it, whether the publish grows the ring or evicts a
// resident trace; a nil tracer counts none.
func TestTracerUnended(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		publishTrace(tr, i)
	}
	if n, ev := tr.Unended(), tr.Evicted(); n != 0 || ev != 3 {
		t.Fatalf("after five published traces: Unended = %d, Evicted = %d, want 0 and 3", n, ev)
	}
	it := tr.Begin(5, "open")
	if n := tr.Unended(); n != 1 {
		t.Fatalf("with one trace begun and not ended: Unended = %d, want 1", n)
	}
	tr.End(it)
	if n := (*Tracer)(nil).Unended(); n != 0 {
		t.Fatalf("nil tracer: Unended = %d, want 0", n)
	}
}

// TestTracingAllocatesNothingOnceFull: with the ring full, a traced
// item's Begin, spans and End reuse an evicted trace and its span array.
func TestTracingAllocatesNothingOnceFull(t *testing.T) {
	tr := NewTracer(4)
	cycle := func() {
		it := tr.Begin(1, "steady")
		root := it.Root(time.Now())
		it.SpanBetween(SpanQueueWait, root, -1, time.Time{}, time.Time{})
		for m := 0; m < 6; m++ {
			id := it.StartSpan(SpanExec, root, m)
			it.Annotate(id, SpanAttrs{RemainingMS: 100})
			it.EndSpan(id)
		}
		tr.End(it)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a traced item allocates %.1f times once the ring is full, want 0", n)
	}
}

// TestRecycledTracesHammer: writers publish thousands of traces through
// a small ring, so every slot and span array is recycled many times,
// while readers copy traces out through Recent, ByTag and WriteJSON.
// Every trace a reader sees must be whole. Run with -race: a copy that
// shared storage with a recycled trace shows as a data race.
func TestRecycledTracesHammer(t *testing.T) {
	const capacity, writers, perWriter = 8, 4, 2500
	tr := NewTracer(capacity)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			report := func(traces ...ItemTrace) bool {
				for _, trace := range traces {
					if err := torn(trace); err != nil {
						t.Error(err)
						return false
					}
				}
				return true
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if !report(tr.Recent(capacity)...) {
					return
				}
				if trace, ok := tr.ByTag(fmt.Sprintf("item-%d", (n*7+r)%(writers*perWriter))); ok && !report(trace) {
					return
				}
				var sb strings.Builder
				if err := tr.WriteJSON(&sb, capacity, ""); err != nil {
					t.Error(err)
					return
				}
				var decoded []ItemTrace
				if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
					t.Error(err)
					return
				}
				if !report(decoded...) {
					return
				}
			}
		}(r)
	}
	var ws sync.WaitGroup
	for g := 0; g < writers; g++ {
		ws.Add(1)
		go func(g int) {
			defer ws.Done()
			for i := 0; i < perWriter; i++ {
				publishTrace(tr, g*perWriter+i)
			}
		}(g)
	}
	ws.Wait()
	close(stop)
	readers.Wait()
	if got := int64(len(tr.Recent(capacity))) + tr.Evicted(); got != writers*perWriter {
		t.Fatalf("resident + evicted = %d, want %d", got, writers*perWriter)
	}
	for _, trace := range tr.Recent(capacity) {
		checkWhole(t, trace)
	}
}
