package ams

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chromeExport mirrors the Chrome trace-event JSON the span tracer
// exports; events keep their raw maps so tests can assert on the exact
// keys Perfetto requires.
type chromeExport struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

func parseChrome(t *testing.T, data []byte) chromeExport {
	t.Helper()
	var doc chromeExport
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, data)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event %d missing required key %q: %v", i, key, ev)
			}
		}
	}
	return doc
}

// TestSpanTraceEndToEnd drives a sharded, work-stealing, batched server
// with the full span stack on — sized tracer ring, SLO burn accounting —
// and checks the PR-10 surfaces end to end: per-item span trees with a
// rooted lifecycle, critical-path attribution, the Chrome/Perfetto
// export (slices, metadata, batch-lane fan-in), and the ams_slo_*
// series in the telemetry snapshot.
func TestSpanTraceEndToEnd(t *testing.T) {
	const items = 10
	cfg := ServeConfig{
		Workers:       2,
		Shards:        2,
		ShardSteal:    true,
		DeadlineSec:   0.5,
		MemoryGB:      8,
		TimeScale:     0.001,
		BatchSize:     2,
		Telemetry:     true,
		TraceCapacity: 64,
		SLOs:          []string{"p99<400ms"},
	}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		tk, err := srv.SubmitWait(bg, testSys.TestItem(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}

	// Every resident trace carries a rooted span tree: span 0 is the
	// "item" root, children nest inside it, and an execution stage
	// (direct or batched) plus the commit appear under it.
	traces := srv.Traces(items)
	if len(traces) != items {
		t.Fatalf("Traces(%d) returned %d", items, len(traces))
	}
	for _, tr := range traces {
		if len(tr.Spans) == 0 {
			t.Fatalf("item %d committed without spans", tr.Item)
		}
		root := tr.Spans[0]
		if root.ID != 0 || root.Parent != -1 || root.Name != "item" {
			t.Fatalf("item %d root span malformed: %+v", tr.Item, root)
		}
		if root.EndUS < root.StartUS {
			t.Fatalf("item %d root span never closed: %+v", tr.Item, root)
		}
		var sawExec, sawCommit bool
		for _, sp := range tr.Spans[1:] {
			if sp.Parent < 0 || sp.Parent >= len(tr.Spans) {
				t.Fatalf("item %d span %d has dangling parent %d", tr.Item, sp.ID, sp.Parent)
			}
			switch sp.Name {
			case "exec":
				sawExec = true
				if sp.Batch == 0 {
					t.Fatalf("item %d exec span on a batched server lost its batch id: %+v", tr.Item, sp)
				}
			case "commit":
				sawCommit = true
			}
		}
		if !sawExec || !sawCommit {
			t.Fatalf("item %d span tree missing stages (exec=%v commit=%v): %+v",
				tr.Item, sawExec, sawCommit, tr.Spans)
		}
	}

	// Critical-path attribution on the slowest item: stages conserve the
	// root duration and their fractions cover it.
	slow, ok := srv.SlowestTrace()
	if !ok {
		t.Fatal("SlowestTrace found no spanned trace")
	}
	stages := slow.CriticalPath()
	if len(stages) == 0 {
		t.Fatal("CriticalPath returned no stages")
	}
	var total int64
	var frac float64
	for _, st := range stages {
		total += st.WallUS
		frac += st.Frac
	}
	rootDur := slow.Spans[0].EndUS - slow.Spans[0].StartUS
	if total != rootDur {
		t.Fatalf("critical path wall time %dµs != root span %dµs", total, rootDur)
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("critical path fractions sum to %g, want 1", frac)
	}
	var sb strings.Builder
	slow.WriteCriticalPath(&sb, "slowest item")
	if out := sb.String(); !strings.Contains(out, "slowest item") || !strings.Contains(out, "exec") {
		t.Fatalf("WriteCriticalPath rendering incomplete:\n%s", out)
	}

	// The Chrome export: valid Perfetto JSON, per-span "X" slices, and a
	// synthesized batch-exec slice on a batch-lane process.
	sb.Reset()
	if err := srv.WriteChromeTrace(&sb, 0); err != nil {
		t.Fatal(err)
	}
	doc := parseChrome(t, []byte(sb.String()))
	var slices, batchExec, budgeted int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			slices++
			if args, _ := ev["args"].(map[string]any); strings.HasPrefix(ev["name"].(string), "select") {
				if ms, ok := args["remaining_ms"].(float64); ok && ms > 0 && args["avail_mem_mb"] != nil {
					budgeted++
				}
			}
			if strings.HasPrefix(ev["name"].(string), "batch-exec") {
				batchExec++
				if ev["pid"].(float64) < 1000 {
					t.Fatalf("batch-exec slice not on a batch-lane process: %v", ev)
				}
			}
		}
	}
	if slices < items {
		t.Fatalf("chrome export has %d slices for %d items", slices, items)
	}
	if batchExec == 0 {
		t.Fatal("batched server exported no batch-exec slice")
	}
	if budgeted < items {
		t.Fatalf("%d select slices carry remaining_ms and avail_mem_mb in args, want one or more per item (%d)", budgeted, items)
	}

	// SLO accounting: both objectives (implicit deadline + configured
	// p99) expose good/bad counters and burn gauges per window.
	byKey := map[string]TelemetryMetric{}
	for _, m := range srv.Stats().Telemetry {
		byKey[m.Name+"|"+m.Labels["slo"]+"|"+m.Labels["window"]] = m
	}
	for _, slo := range []string{"deadline", "p99"} {
		good := byKey["ams_slo_good_total|"+slo+"|"]
		bad := byKey["ams_slo_bad_total|"+slo+"|"]
		if int64(good.Value+bad.Value) != items {
			t.Fatalf("slo %q accounted %v good + %v bad, want %d total",
				slo, good.Value, bad.Value, items)
		}
		for _, win := range []string{"300s", "3600s"} {
			if _, ok := byKey["ams_slo_burn_rate|"+slo+"|"+win]; !ok {
				t.Errorf("missing ams_slo_burn_rate{slo=%q,window=%q}", slo, win)
			}
		}
	}
}

// TestServeTraceOutDump: a closed server's whole span-trace ring exports
// through WriteChromeTrace as loadable Chrome JSON — what amsserve
// -trace-out writes after Close.
func TestServeTraceOutDump(t *testing.T) {
	cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, Telemetry: true}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tk, err := srv.SubmitWait(bg, testSys.TestItem(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := srv.WriteChromeTrace(&sb, 0); err != nil {
		t.Fatalf("WriteChromeTrace after Close: %v", err)
	}
	doc := parseChrome(t, []byte(sb.String()))
	if len(doc.TraceEvents) == 0 {
		t.Fatal("the closed server's trace export has no events")
	}
}

// TestServeFlightRecorderShedStorm induces the anomaly the flight
// recorder exists for: an open-loop overload against a one-worker,
// one-slot queue sheds most arrivals, the shed-rate trigger fires, and
// an atomically-written JSON bundle — metrics plus the recent trace
// ring, captured before the anomaly — lands in FlightDir.
func TestServeFlightRecorderShedStorm(t *testing.T) {
	dir := t.TempDir()
	cfg := ServeConfig{
		Workers:     1,
		QueueCap:    1,
		DeadlineSec: 2.0,
		MemoryGB:    8,
		TimeScale:   0.05,
		FlightDir:   dir,
	}
	// 200 arrivals at 10 Hz simulated = 20 simulated seconds = one
	// second of wall at 0.05×: long enough for the recorder's 250 ms
	// polls to take a baseline and then see the storm (Close's final
	// poll is the backstop), fast enough to stay a unit test.
	trace := ServeTrace{ArrivalRateHz: 10, Items: 200, Seed: 1, OpenLoop: true}
	st, err := replayTrace(bg, testAgent, cfg, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatal("open-loop overload shed nothing: the storm never happened")
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) == 0 {
		t.Fatalf("flight recorder wrote no bundle despite %d sheds", st.Rejected)
	}
	data, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		Trigger  string            `json:"trigger"`
		Detail   string            `json:"detail"`
		WallTime string            `json:"wall_time"`
		Metrics  []TelemetryMetric `json:"metrics"`
		Traces   []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(data, &bundle); err != nil {
		t.Fatalf("flight bundle is not valid JSON: %v\n%s", err, data)
	}
	if bundle.Trigger == "" || bundle.WallTime == "" {
		t.Fatalf("flight bundle missing trigger metadata: %s", data)
	}
	if len(bundle.Metrics) == 0 {
		t.Fatalf("flight bundle carries no metric snapshot: %s", data)
	}
	sawShed := false
	for _, m := range bundle.Metrics {
		if m.Name == "ams_items_shed_total" || m.Name == "ams_flight_dumps_total" {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatalf("flight bundle snapshot missing serving counters: %s", data)
	}
}
