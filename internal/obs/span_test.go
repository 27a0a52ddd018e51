package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTracerRecentOrdering: newest-first order must hold in all three
// ring states — partially filled, exactly full, and wrapped.
func TestTracerRecentOrdering(t *testing.T) {
	publish := func(tr *Tracer, n int) {
		for i := 0; i < n; i++ {
			it := tr.Begin(i, fmt.Sprintf("it-%d", i))
			tr.End(it)
		}
	}
	check := func(tr *Tracer, want ...int) {
		t.Helper()
		got := tr.Recent(100)
		if len(got) != len(want) {
			t.Fatalf("Recent returned %d traces, want %d", len(got), len(want))
		}
		for i, w := range want {
			if got[i].Item != w {
				t.Fatalf("Recent[%d].Item = %d, want %d", i, got[i].Item, w)
			}
		}
	}
	partial := NewTracer(4)
	publish(partial, 3)
	check(partial, 2, 1, 0)

	full := NewTracer(4)
	publish(full, 4)
	check(full, 3, 2, 1, 0)

	wrapped := NewTracer(4)
	publish(wrapped, 7) // overwrites items 0..2
	check(wrapped, 6, 5, 4, 3)
	if wrapped.Evicted() != 3 {
		t.Fatalf("evicted = %d, want 3", wrapped.Evicted())
	}
	// n smaller than residency truncates from the newest end.
	if got := wrapped.Recent(2); len(got) != 2 || got[0].Item != 6 || got[1].Item != 5 {
		t.Fatalf("Recent(2) = %v", got)
	}
}

// TestTracerByTagNewest: duplicate tags resolve to the most recently
// published trace, across a wraparound.
func TestTracerByTagNewest(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		it := tr.Begin(i, "dup")
		tr.End(it)
	}
	got, ok := tr.ByTag("dup")
	if !ok || got.Item != 4 {
		t.Fatalf("ByTag(dup): ok=%v item=%d, want the newest (4)", ok, got.Item)
	}
	if _, ok := tr.ByTag("absent"); ok {
		t.Fatal("ByTag must miss on an unknown tag")
	}
}

// TestTracerConcurrentAccess hammers Begin/End against Recent, ByTag
// and WriteJSON — the /tracez handler reads while workers publish.
// Run with -race.
func TestTracerConcurrentAccess(t *testing.T) {
	tr := NewTracer(8)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Recent(4)
			tr.ByTag("w1-3")
			tr.WriteJSON(&strings.Builder{}, 4, "")
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				it := tr.Begin(i, fmt.Sprintf("w%d-%d", g, i))
				it.Root(time.Now())
				id := it.StartSpan(SpanExec, 0, 1)
				it.EndSpan(id)
				tr.End(it)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := int64(len(tr.Recent(tr.Capacity()))) + tr.Evicted(); got != 800 {
		t.Fatalf("resident + evicted = %d, want 800", got)
	}
}

// TestWriteJSONNil: the nil tracer must still produce a valid (empty)
// JSON array — the /tracez contract with telemetry off.
func TestWriteJSONNil(t *testing.T) {
	var tr *Tracer
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 10, ""); err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal([]byte(sb.String()), &arr); err != nil || len(arr) != 0 {
		t.Fatalf("nil tracer JSON = %q, want []", sb.String())
	}
	sb.Reset()
	if err := tr.WriteChrome(&sb, 10, ""); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("nil tracer chrome doc unparseable: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("nil tracer chrome = %v, want empty traceEvents", doc)
	}
}

// TestSpanTreeOffsets: spans measure both clocks from the arrival
// origin, and Tracer.End closes whatever is still open.
func TestSpanTreeOffsets(t *testing.T) {
	tr := NewTracer(2)
	tr.SetTimeScale(0.001) // 1 real ms = 1 simulated s
	it := tr.Begin(7, "img-7")
	arrival := time.Now().Add(-10 * time.Millisecond)
	root := it.Root(arrival)
	if root != 0 {
		t.Fatalf("root id = %d, want 0", root)
	}
	if again := it.Root(arrival.Add(time.Hour)); again != 0 {
		t.Fatalf("Root must be idempotent, got %d", again)
	}
	id := it.SpanBetween(SpanQueueWait, root, -1, arrival, arrival.Add(4*time.Millisecond))
	if id != 1 {
		t.Fatalf("child id = %d, want 1", id)
	}
	open := it.StartSpan(SpanExec, root, 2)
	tr.End(it) // closes root and the open exec span
	got, ok := tr.ByTag("img-7")
	if !ok {
		t.Fatal("trace not published")
	}
	qw := got.Spans[1]
	if qw.StartUS != 0 || qw.EndUS < 3500 || qw.EndUS > 4500 {
		t.Fatalf("queue-wait offsets [%d, %d]us, want [0, ~4000]", qw.StartUS, qw.EndUS)
	}
	// Virtual clock: 4 wall ms ÷ 0.001 = 4000 simulated ms.
	if qw.VEndMS < 3500 || qw.VEndMS > 4500 {
		t.Fatalf("queue-wait vend = %g ms, want ~4000", qw.VEndMS)
	}
	for _, sp := range []Span{got.Spans[0], got.Spans[open]} {
		if sp.EndUS < 0 || sp.EndUS < sp.StartUS {
			t.Fatalf("End must close open span %q: [%d, %d]", sp.Name, sp.StartUS, sp.EndUS)
		}
	}
}

// TestSpanCap: past maxTraceSpans the trace counts drops, returns -1
// ids, and EndSpan on a -1 id stays safe.
func TestSpanCap(t *testing.T) {
	tr := NewTracer(1)
	it := tr.Begin(0, "big")
	it.Root(time.Now())
	var last int
	for i := 0; i < maxTraceSpans+5; i++ {
		last = it.StartSpan(SpanSelect, 0, -1)
		it.EndSpan(last)
	}
	if last != -1 {
		t.Fatalf("capped StartSpan = %d, want -1", last)
	}
	if it.DroppedSpans != 6 { // root consumed one slot
		t.Fatalf("dropped spans = %d, want 6", it.DroppedSpans)
	}
	tr.End(it)
	if got := tr.Recent(1)[0].DroppedSpans; got != 6 {
		t.Fatalf("published trace dropped spans = %d, want 6", got)
	}
}

// TestCriticalPathAttribution checks the sweep-line rules: the
// latest-started covering child wins each sub-interval, uncovered root
// time becomes "other", and stages aggregate then sort by wall time.
// Select spans carry the model each ask picked, but the item's selection
// overhead (the paper's Table III number) stays one stage.
func TestCriticalPathAttribution(t *testing.T) {
	trace := ItemTrace{TimeScale: 1, Spans: []Span{
		{ID: 0, Parent: -1, Name: SpanItem, Model: -1, StartUS: 0, EndUS: 1000},
		{ID: 1, Parent: 0, Name: SpanQueueWait, Model: -1, StartUS: 0, EndUS: 60},
		{ID: 2, Parent: 0, Name: SpanSelect, Model: 3, StartUS: 60, EndUS: 80},
		{ID: 3, Parent: 0, Name: SpanSelect, Model: 5, StartUS: 80, EndUS: 90},
		{ID: 4, Parent: 0, Name: SpanSelect, Model: -1, StartUS: 90, EndUS: 100},
		{ID: 5, Parent: 0, Name: SpanExec, Model: 3, StartUS: 100, EndUS: 600},
		{ID: 6, Parent: 0, Name: SpanReserveWait, Model: 3, StartUS: 200, EndUS: 400},
		{ID: 7, Parent: 0, Name: SpanCommit, Model: -1, StartUS: 600, EndUS: 900},
	}}
	stages := trace.CriticalPath()
	got := map[string]int64{}
	var total int64
	selectStages := 0
	for _, st := range stages {
		got[st.Name] += st.WallUS
		total += st.WallUS
		if st.Name == SpanSelect {
			selectStages++
			if st.Model != -1 {
				t.Fatalf("select stage keyed by model %d, want -1", st.Model)
			}
		}
	}
	if selectStages != 1 {
		t.Fatalf("got %d select stages for 3 asks, want one per item: %+v", selectStages, stages)
	}
	want := map[string]int64{
		SpanQueueWait:   60,
		SpanSelect:      40,
		SpanExec:        300, // 100–200 and 400–600; reserve-wait owns 200–400
		SpanReserveWait: 200,
		SpanCommit:      300,
		SpanOther:       100, // 900–1000: no child covers the tail
	}
	for name, us := range want {
		if got[name] != us {
			t.Fatalf("stage %q = %dus, want %dus (all: %v)", name, got[name], us, got)
		}
	}
	if total != 1000 {
		t.Fatalf("attribution must conserve the root: total %dus, want 1000", total)
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].WallUS > stages[i-1].WallUS {
			t.Fatal("stages must sort by descending wall time")
		}
	}
	var fracs float64
	for _, st := range stages {
		fracs += st.Frac
	}
	if fracs < 0.999 || fracs > 1.001 {
		t.Fatalf("fractions sum to %g, want 1", fracs)
	}
	if (ItemTrace{}).CriticalPath() != nil {
		t.Fatal("no spans must yield a nil critical path")
	}
}

// TestSumCriticalPaths: stage sums over many traces average per traced
// item, merge a stage's per-model rows, share the summed latency, sort
// by time, and skip traces with no spans.
func TestSumCriticalPaths(t *testing.T) {
	a := ItemTrace{TimeScale: 1, Spans: []Span{
		{ID: 0, Parent: -1, Name: SpanItem, Model: -1, StartUS: 0, EndUS: 1000},
		{ID: 1, Parent: 0, Name: SpanQueueWait, Model: -1, StartUS: 0, EndUS: 600},
		{ID: 2, Parent: 0, Name: SpanExec, Model: 3, StartUS: 600, EndUS: 800},
		{ID: 3, Parent: 0, Name: SpanExec, Model: 5, StartUS: 800, EndUS: 1000},
	}}
	b := ItemTrace{TimeScale: 1, Spans: []Span{
		{ID: 0, Parent: -1, Name: SpanItem, Model: -1, StartUS: 0, EndUS: 1000},
		{ID: 1, Parent: 0, Name: SpanBatchHold, Model: 3, StartUS: 0, EndUS: 200},
		{ID: 2, Parent: 0, Name: SpanExec, Model: 3, StartUS: 200, EndUS: 1000},
	}}
	sums := SumCriticalPaths([]ItemTrace{a, {}, b})
	want := []StageSum{
		{Name: SpanExec, USPerItem: 600, Share: 0.6},
		{Name: SpanQueueWait, USPerItem: 300, Share: 0.3},
		{Name: SpanBatchHold, USPerItem: 100, Share: 0.1},
	}
	if sums.Items != 2 || !reflect.DeepEqual(sums.Stages, want) {
		t.Fatalf("sums = %+v, want 2 items and %+v", sums, want)
	}
	var sb strings.Builder
	sums.Write(&sb, "all items")
	if out := sb.String(); !strings.Contains(out, "all items (2 items") ||
		!strings.Contains(out, "exec") || !strings.Contains(out, "600.0 µs/item ( 60.0 %)") {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
	sb.Reset()
	SumCriticalPaths(nil).Write(&sb, "none")
	if sb.Len() != 0 {
		t.Fatalf("empty sums rendered %q", sb.String())
	}
}

// TestChromeExportShape: slices carry the required trace-event keys,
// steals draw an instant + flow pair from the victim, and batched execs
// synthesize one fan-in slice on the batch-lane process.
func TestChromeExportShape(t *testing.T) {
	tr := NewTracer(4)
	tr.SetModelNames([]string{"m0", "m1"})
	batch := NextBatchID()
	for i := 0; i < 2; i++ {
		it := tr.Begin(i, "") // untagged: provenance must not need a tag
		it.SetShards(i, 1)    // item 0 was stolen from shard 0, item 1 ran at home
		root := it.Root(time.Now().Add(-time.Millisecond))
		sel := it.StartSpan(SpanSelect, root, 1)
		it.EndSpan(sel)
		it.Annotate(sel, SpanAttrs{RemainingMS: 400, AvailMemMB: -1})
		exec := it.StartSpan(SpanExec, root, 1)
		it.Annotate(exec, SpanAttrs{Batch: batch, BatchN: 2, Note: "size"})
		it.EndSpan(exec)
		tr.End(it)
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb, 10, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome doc unparseable: %v", err)
	}
	var slices, stealFlows, batchSlices, selectArgs int
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		name, _ := ev["name"].(string)
		switch {
		case ev["ph"] == "X" && strings.HasPrefix(name, "batch-exec"):
			batchSlices++
			if pid := int(ev["pid"].(float64)); pid != batchLanePid(1) {
				t.Fatalf("batch slice on pid %d, want %d", pid, batchLanePid(1))
			}
		case ev["ph"] == "X":
			slices++
			if args, _ := ev["args"].(map[string]any); strings.HasPrefix(name, SpanSelect) &&
				args["remaining_ms"] == 400.0 && args["avail_mem_mb"] == -1.0 {
				selectArgs++
			}
		case ev["cat"] == "steal" && (ev["ph"] == "s" || ev["ph"] == "f"):
			stealFlows++
		}
	}
	if slices < 6 { // 2 traces × (root + select + exec)
		t.Fatalf("want ≥6 span slices, got %d", slices)
	}
	if selectArgs != 2 {
		t.Fatalf("want the budget each ask saw in both select slices' args, got %d", selectArgs)
	}
	if stealFlows != 2 {
		t.Fatalf("want one steal flow pair, got %d arrows", stealFlows)
	}
	if batchSlices != 1 {
		t.Fatalf("want one synthesized batch-exec slice, got %d", batchSlices)
	}
}

// TestStealProvenance: provenance is stamped from the ticket's shards,
// tag or no tag — Stolen exactly when home and executing shard differ,
// with the home → executing-shard link on the root span — and two
// in-flight items sharing a tag keep their own.
func TestStealProvenance(t *testing.T) {
	tr := NewTracer(4)
	for _, tag := range []string{"", "dup"} {
		stolen, local := tr.Begin(1, tag), tr.Begin(2, tag)
		stolen.SetShards(2, 0)
		local.SetShards(1, 1)
		stolen.Root(time.Now())
		local.Root(time.Now())
		if !stolen.Stolen || stolen.Home != 2 || stolen.Shard != 0 {
			t.Fatalf("tag %q: stolen provenance wrong: %+v", tag, stolen)
		}
		if ln := stolen.Spans[0].Links; len(ln) != 1 || ln[0] != (SpanLink{Kind: "steal", From: 2, To: 0}) {
			t.Fatalf("tag %q: root steal link wrong: %+v", tag, ln)
		}
		if local.Stolen || local.Home != 1 || local.Shard != 1 || len(local.Spans[0].Links) != 0 {
			t.Fatalf("tag %q: a home-run item must carry no steal: %+v", tag, local)
		}
	}
}

// fakeClock is a hand-driven clock in seconds, safe to read from the
// flight recorder's poll goroutine while the test sets it.
type fakeClock struct{ bits atomic.Uint64 }

func (c *fakeClock) now() float64  { return bitsFloat(c.bits.Load()) }
func (c *fakeClock) set(s float64) { c.bits.Store(floatBits(s)) }

// TestSLOBurnRate drives the virtual clock by hand: burn is the
// windowed bad fraction over the error budget, and slots age out once
// the clock moves a full window past them.
func TestSLOBurnRate(t *testing.T) {
	var clk fakeClock
	s := NewSLO("p99", 0.25, 0.99, clk.now)
	for i := 0; i < 90; i++ {
		s.Observe(0.1) // good
	}
	for i := 0; i < 10; i++ {
		s.Observe(0.9) // bad
	}
	if s.Good() != 90 || s.Bad() != 10 {
		t.Fatalf("good/bad = %d/%d, want 90/10", s.Good(), s.Bad())
	}
	// 10% bad over a 1% budget: burn 10× in both windows.
	for _, w := range []float64{FastBurnSec, SlowBurnSec} {
		if burn := s.BurnRate(w); burn < 9.99 || burn > 10.01 {
			t.Fatalf("burn(%gs) = %g, want 10", w, burn)
		}
	}
	if s.BurnRate(42) != 0 {
		t.Fatal("unknown window must report 0")
	}
	// Advance past the fast window: its slots age out, the slow window
	// still remembers.
	clk.set(600)
	s.Observe(0.1)
	if burn := s.BurnRate(FastBurnSec); burn != 0 {
		t.Fatalf("aged fast-window burn = %g, want 0", burn)
	}
	if burn := s.BurnRate(SlowBurnSec); burn <= 0 {
		t.Fatalf("slow-window burn = %g, want > 0", burn)
	}
	var nilSLO *SLO
	nilSLO.Observe(1)
	if nilSLO.BurnRate(300) != 0 || nilSLO.Good() != 0 || nilSLO.Bad() != 0 {
		t.Fatal("nil SLO must no-op")
	}
}

// TestSLOViews: the ams_slo_* family renders with the slo label and one
// burn gauge per window.
func TestSLOViews(t *testing.T) {
	var clk fakeClock
	clk.set(42)
	s := NewSLO("deadline", 0.5, 0.75, clk.now)
	s.Observe(0.1)
	s.Observe(0.9)
	reg := NewRegistry()
	s.RegisterViews(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`ams_slo_good_total{slo="deadline"} 1`,
		`ams_slo_bad_total{slo="deadline"} 1`,
		`ams_slo_burn_rate{slo="deadline",window="300s"} 2`,
		`ams_slo_burn_rate{slo="deadline",window="3600s"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestRateTrigger: the first sample is only a baseline; a later jump
// over the per-second limit fires with a human-readable detail. The
// rate is growth per second of the trigger's clock, not of wall time.
func TestRateTrigger(t *testing.T) {
	var clk fakeClock
	var v int64
	fire := RateTrigger(clk.now, func() int64 { return v }, 5)
	if fired, _ := fire(); fired {
		t.Fatal("baseline poll must not fire")
	}
	v += 1000
	clk.set(1)
	fired, detail := fire()
	if !fired || detail != "rate 1000.0/s over limit 5/s" {
		t.Fatalf("jump should fire: fired=%v detail=%q", fired, detail)
	}
	clk.set(2)
	if fired, _ := fire(); fired {
		t.Fatal("flat counter must not fire again")
	}
	v += 1000
	if fired, _ := fire(); fired {
		t.Fatal("growth with no clock time passed must not fire")
	}
	// 40 over 20 clock seconds is 2/s, under the limit however little
	// wall time the polls are apart. At TimeScale 0.05 those 20 seconds
	// are one wall second, where a wall-clock rate reads 40/s and fires.
	v += 40
	clk.set(22)
	if fired, detail := fire(); fired {
		t.Fatalf("2/s under a 5/s limit fired: %q", detail)
	}
	if fired, _ := ThresholdTrigger(func() float64 { return 7 }, 8)(); fired {
		t.Fatal("threshold under limit must not fire")
	}
	if fired, _ := ThresholdTrigger(func() float64 { return 9 }, 8)(); !fired {
		t.Fatal("threshold over limit must fire")
	}
}

// TestFlightRecorder: a fired trigger produces one parseable bundle per
// cooldown, and the cooldown counts seconds of the recorder's clock: it
// ends when the clock moves 5 s on, however little wall time passed.
// Close performs the final shutdown poll; the nil recorder no-ops.
func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Counter("ams_x_total", "x").Add(3)
	tr := NewTracer(4)
	it := tr.Begin(0, "t0")
	it.Root(time.Now())
	tr.End(it)

	var clk fakeClock
	var armed atomic.Bool
	fr := NewFlightRecorder(dir, reg, tr, clk.now,
		Trigger{Name: "shed-storm", Fire: func() (bool, string) { return armed.Load(), "rate 41.2/s" }})
	fr.interval = 5 * time.Millisecond
	fr.Start()
	armed.Store(true)
	waitDumps := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for fr.Dumps() < n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if fr.Dumps() != n {
			t.Fatalf("dumps = %d, want %d", fr.Dumps(), n)
		}
	}
	waitDumps(1)
	clk.set(flightCooldownSec) // the cooldown is over on the clock
	waitDumps(2)
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if fr.Dumps() != 2 || fr.Errors() != 0 {
		t.Fatalf("dumps/errors = %d/%d, want 2/0 (the final poll is still cooling)", fr.Dumps(), fr.Errors())
	}
	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-shed-storm.json"))
	if err != nil || len(matches) != 2 {
		t.Fatalf("bundle files = %v (err %v), want 2", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var b FlightBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("bundle unparseable: %v", err)
	}
	if b.Trigger != "shed-storm" || b.Detail != "rate 41.2/s" {
		t.Fatalf("bundle header wrong: %+v", b)
	}
	if len(b.Metrics) == 0 || len(b.Traces) != 1 {
		t.Fatalf("bundle payload wrong: %d metrics, %d traces", len(b.Metrics), len(b.Traces))
	}

	var nilFR *FlightRecorder
	nilFR.Start()
	nilFR.RegisterViews(reg)
	if nilFR.Dumps() != 0 || nilFR.Errors() != 0 {
		t.Fatal("nil recorder must count nothing")
	}
	if err := nilFR.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderCooldownCountsPolls: at TimeScale 0.001 one 250 ms
// poll spans 250 s of the recorder's clock, so the clock's cooldown is
// over at every poll; the poll count still holds a sustained anomaly to
// one bundle per 20 polls (5 s of wall time).
func TestFlightRecorderCooldownCountsPolls(t *testing.T) {
	var clk fakeClock
	fr := NewFlightRecorder(t.TempDir(), NewRegistry(), NewTracer(2), clk.now,
		Trigger{Name: "deadline-burn", Fire: func() (bool, string) { return true, "burn 12" }})
	for i := range 40 {
		clk.set(250 * float64(i))
		fr.poll()
	}
	if fr.Dumps() != 2 || fr.Errors() != 0 {
		t.Fatalf("dumps/errors = %d/%d over 40 polls, want 2/0", fr.Dumps(), fr.Errors())
	}
}

// TestFlightRecorderShutdownPoll: an anomaly that becomes detectable
// only at shutdown is still captured by Close's final poll.
func TestFlightRecorderShutdownPoll(t *testing.T) {
	var clk fakeClock
	fr := NewFlightRecorder(t.TempDir(), NewRegistry(), NewTracer(2), clk.now,
		Trigger{Name: "deadline-burn", Fire: func() (bool, string) { return true, "burn 12" }})
	fr.interval = time.Hour // the ticker never fires
	fr.Start()
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if fr.Dumps() != 1 {
		t.Fatalf("shutdown poll did not capture the live anomaly: dumps = %d", fr.Dumps())
	}
}
