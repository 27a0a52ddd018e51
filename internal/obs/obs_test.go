package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterHammer: concurrent increments are conserved.
func TestCounterHammer(t *testing.T) {
	const goroutines, perG = 16, 20000
	c := NewCounter()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: got %d want %d", got, goroutines*perG)
	}
}

// TestHistogramHammer: N goroutines × M observations; the final
// snapshot conserves the count, the sum matches, and quantiles are
// monotone. Mid-flight snapshots must also keep their invariants.
func TestHistogramHammer(t *testing.T) {
	const goroutines, perG = 8, 5000
	h := NewHistogram()
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var bucketTotal int64
			for _, b := range s.Buckets {
				bucketTotal += b
			}
			if bucketTotal != s.Count {
				snapErr = fmt.Errorf("snapshot count %d != bucket total %d", s.Count, bucketTotal)
				return
			}
			if s.P50 > s.P95 || s.P95 > s.P99 {
				snapErr = fmt.Errorf("quantiles not monotone: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations across many buckets.
				h.Observe(1e-6 * float64(1+(g*perG+i)%4096))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count not conserved: got %d want %d", s.Count, goroutines*perG)
	}
	var want float64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			want += 1e-6 * float64(1+(g*perG+i)%4096)
		}
	}
	if diff := s.Sum - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum drifted: got %g want %g", s.Sum, want)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
	if s.Mean() <= 0 {
		t.Fatalf("mean should be positive, got %g", s.Mean())
	}
}

func TestHistogramDropsGarbage(t *testing.T) {
	h := NewHistogram()
	h.Observe(-1)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(0.25)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0.25 || h.Count() != 1 {
		t.Fatalf("NaN/negative/+Inf must be dropped: count=%d sum=%g Count()=%d", s.Count, s.Sum, h.Count())
	}
}

// TestNilInstrumentsAllocFree: the disabled fast path must not allocate
// — this is the "inert when disabled" promise the serve hot path
// relies on.
func TestNilInstrumentsAllocFree(t *testing.T) {
	var (
		c  *Counter
		h  *Histogram
		tr *Tracer
		it *ItemTrace
		r  *Registry
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		_ = c.Value()
		h.Observe(0.5)
		t0 := Started(h)
		h.ObserveSince(t0)
		h.ObserveScaledSince(t0, 0.001)
		it = tr.Begin(1, "x")
		if !it.Stamp().IsZero() {
			panic("nil ItemTrace.Stamp must not read the clock")
		}
		it.SetShards(0, 2)
		_ = it.Root(time.Time{})
		sp := it.StartSpan(SpanExec, 0, 1)
		it.EndSpan(sp)
		_ = it.SpanBetween(SpanQueueWait, 0, -1, time.Time{}, time.Time{})
		it.Annotate(sp, SpanAttrs{Batch: 1, BatchN: 2, Note: "size"})
		tr.End(it)
		var slo *SLO
		slo.Observe(0.5)
		_ = slo.BurnRate(300)
		_ = r.Counter("ams_x", "help")
		_ = r.Histogram("ams_z", "help")
		r.CounterFunc("ams_cf", "help", nil)
		r.GaugeFunc("ams_gf", "help", nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %v times per run; want 0", allocs)
	}
	if !Started(nil).IsZero() {
		t.Fatal("Started(nil) must return the zero time")
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ams_total", "a counter")
	b := r.Counter("ams_total", "a counter")
	if a != b {
		t.Fatal("re-registering the same counter must return the same instrument")
	}
	l1 := r.Counter("ams_model_total", "per model", L("model", "resnet"))
	l2 := r.Counter("ams_model_total", "per model", L("model", "vgg"))
	l1again := r.Counter("ams_model_total", "per model", L("model", "resnet"))
	if l1 == l2 {
		t.Fatal("distinct label sets must get distinct series")
	}
	if l1 != l1again {
		t.Fatal("same label set must share one series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict should panic")
		}
	}()
	r.GaugeFunc("ams_total", "now a gauge", func() float64 { return 0 })
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ams_items_total", "items served", L("shard", "0")).Add(7)
	r.GaugeFunc("ams_queue_depth", "queued items", func() float64 { return 3.5 })
	h := r.Histogram("ams_wait_seconds", "queue wait")
	h.Observe(2e-6)
	h.Observe(5e-6)
	r.CounterFunc("ams_view_total", "a view", func() int64 { return 42 })
	r.GaugeFunc("ams_view_depth", "a view gauge", func() float64 { return 1.25 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP ams_items_total items served",
		"# TYPE ams_items_total counter",
		`ams_items_total{shard="0"} 7`,
		"# TYPE ams_queue_depth gauge",
		"ams_queue_depth 3.5",
		"# TYPE ams_wait_seconds histogram",
		`ams_wait_seconds_bucket{le="1e-06"} 0`,
		`ams_wait_seconds_bucket{le="2e-06"} 1`,
		`ams_wait_seconds_bucket{le="8e-06"} 2`,
		`ams_wait_seconds_bucket{le="+Inf"} 2`,
		"ams_wait_seconds_sum 7",
		"ams_wait_seconds_count 2",
		"ams_view_total 42",
		"ams_view_depth 1.25",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Families must be name-sorted for deterministic scrapes.
	if strings.Index(text, "ams_items_total") > strings.Index(text, "ams_queue_depth") {
		t.Fatal("families not sorted by name")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("ams_a_total", "a").Add(2)
	h := r.Histogram("ams_b_seconds", "b", L("model", "m0"))
	h.Observe(0.5)
	h.Observe(1.5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 series, got %d", len(snap))
	}
	if snap[0].Name != "ams_a_total" || snap[0].Value != 2 || snap[0].Kind != "counter" {
		t.Fatalf("counter snapshot wrong: %+v", snap[0])
	}
	hm := snap[1]
	if hm.Count != 2 || hm.Sum != 2.0 || hm.Labels["model"] != "m0" {
		t.Fatalf("histogram snapshot wrong: %+v", hm)
	}
	if hm.P50 > hm.P95 || hm.P95 > hm.P99 {
		t.Fatalf("snapshot quantiles not monotone: %+v", hm)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x", "h") != nil || r.Histogram("x3", "h") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		it := tr.Begin(i, fmt.Sprintf("item-%d", i))
		it.Annotate(it.StartSpan(SpanSelect, it.Root(time.Now()), i), SpanAttrs{RemainingMS: 400})
		tr.End(it)
	}
	if got := int64(len(tr.Recent(100))) + tr.Evicted(); got != 10 {
		t.Fatalf("resident + evicted: got %d want 10", got)
	}
	recent := tr.Recent(100)
	if len(recent) != 4 {
		t.Fatalf("ring should retain 4, got %d", len(recent))
	}
	if recent[0].Item != 9 || recent[3].Item != 6 {
		t.Fatalf("ring order wrong: newest=%d oldest=%d", recent[0].Item, recent[3].Item)
	}
	if got, ok := tr.ByTag("item-8"); !ok || got.Item != 8 {
		t.Fatalf("ByTag(item-8): ok=%v item=%d", ok, got.Item)
	}
	if _, ok := tr.ByTag("item-2"); ok {
		t.Fatal("evicted trace should not be retrievable")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 2, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"remaining_ms": 400`) || strings.Contains(sb.String(), `"events"`) {
		t.Fatalf("trace JSON must carry decisions as span attributes only:\n%s", sb.String())
	}
}

// TestTraceCapSingleCounter: a trace has one list, one cap and one drop
// counter. Decision-carrying spans past the cap are counted like any
// other, and annotating their -1 id is a no-op.
func TestTraceCapSingleCounter(t *testing.T) {
	tr := NewTracer(2)
	for n := 0; n < 2; n++ {
		it := tr.Begin(n, "big")
		root := it.Root(time.Now())
		for i := 0; i < maxTraceSpans+9; i++ { // the root took one slot
			id := it.SpanBetween(SpanReserveWait, root, -1, time.Time{}, time.Time{})
			it.Annotate(id, SpanAttrs{RemainingMS: 100, AvailMemMB: 64, Note: "stall"})
		}
		if len(it.Spans) != maxTraceSpans || it.DroppedSpans != 10 {
			t.Fatalf("cap not enforced: spans=%d dropped=%d", len(it.Spans), it.DroppedSpans)
		}
		if last := it.Spans[maxTraceSpans-1]; last.Note != "stall" || last.AvailMemMB != 64 {
			t.Fatalf("last span under the cap lost its attributes: %+v", last)
		}
		tr.End(it)
	}
	raw, err := json.Marshal(tr.Recent(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"dropped_spans":10`) || strings.Contains(string(raw), "dropped_events") {
		t.Fatalf("trace JSON must carry the one drop counter:\n%.300s", raw)
	}
}

// An unconstrained budget reaches the scheduler as +Inf; recorded
// verbatim it would make every trace unmarshalable (encoding/json
// rejects non-finite values — the bug that silently broke /tracez and
// flight bundles on servers without a memory budget).
func TestSpanAttrsClampNonFinite(t *testing.T) {
	tr := NewTracer(1)
	it := tr.Begin(0, "inf")
	root := it.Root(time.Now())
	it.Annotate(it.SpanBetween(SpanSelect, root, 1, time.Time{}, time.Time{}),
		SpanAttrs{RemainingMS: math.Inf(1), AvailMemMB: math.Inf(-1)})
	it.Annotate(it.SpanBetween(SpanCommit, root, -1, time.Time{}, time.Time{}),
		SpanAttrs{RemainingMS: math.NaN(), AvailMemMB: math.NaN()})
	for _, sp := range it.Spans[1:] {
		if sp.RemainingMS != -1 || sp.AvailMemMB != -1 {
			t.Fatalf("non-finite constraint not clamped: %+v", sp)
		}
	}
	tr.End(it)
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 1, ""); err != nil {
		t.Fatalf("trace with unbounded constraints must stay marshalable: %v", err)
	}
	if !strings.Contains(sb.String(), `"avail_mem_mb": -1`) || !strings.Contains(sb.String(), `"remaining_ms": -1`) {
		t.Fatalf("clamped sentinel missing from JSON:\n%s", sb.String())
	}
	sb.Reset()
	if err := tr.WriteChrome(&sb, 1, ""); err != nil {
		t.Fatalf("chrome export of unbounded constraints: %v", err)
	}
}

func TestStartedAndSince(t *testing.T) {
	h := NewHistogram()
	t0 := Started(h)
	if t0.IsZero() {
		t.Fatal("Started on a live histogram must stamp the clock")
	}
	time.Sleep(time.Millisecond)
	h.ObserveSince(t0)
	if s := h.Snapshot(); s.Count != 1 || s.Sum < 1e-3 {
		t.Fatalf("ObserveSince after a 1 ms sleep recorded %+v, want one span of at least 1 ms", s)
	}
	h.ObserveSince(time.Time{}) // zero stamp: span never started
	if h.Snapshot().Count != 1 {
		t.Fatal("zero start stamp must be dropped")
	}
}
