package ams

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestTelemetryBitIdenticalAcrossPolicies: turning telemetry on must not
// change a single byte of any schedule — instruments observe decisions,
// they never participate in them. Every registry policy runs the same
// item stream in three modes — bare, plain telemetry, and the full
// span-tracing stack (sized tracer ring plus SLO burn accounting) — and
// the delivered results must match exactly across all of them: executed
// models, order, nominal times, labels, recall.
func TestTelemetryBitIdenticalAcrossPolicies(t *testing.T) {
	const items = 8
	modes := []struct {
		name string
		mut  func(*ServeConfig)
	}{
		{"telemetry", func(c *ServeConfig) { c.Telemetry = true }},
		{"spans+slo", func(c *ServeConfig) {
			c.Telemetry = true
			c.TraceCapacity = 64
			c.SLOs = []string{"p99<400ms", "tight:p50<50ms"}
		}},
	}
	for _, pol := range registryPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			// The stochastic policy seeds its RNG per worker, so which
			// worker dequeues an item — a runtime race, orthogonal to the
			// telemetry contract under test — picks the draw stream. Pin it
			// to one worker, as TestBatchSizeOneBitIdenticalAcrossPolicies
			// does, so its schedules compare run to run.
			workers := 2
			if pol.Name() == PolicyRandom.Name() {
				workers = 1
			}
			run := func(mut func(*ServeConfig)) []*Result {
				cfg := ServeConfig{
					Workers:        workers,
					Policy:         pol,
					DeadlineSec:    0.5,
					MemoryGB:       8,
					TimeScale:      0.001,
					BatchSize:      2,
					PredictorCache: true,
				}
				if mut != nil {
					mut(&cfg)
				}
				srv, err := testSys.NewServer(testAgent, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				out := make([]*Result, items)
				for i := 0; i < items; i++ {
					tk, err := srv.SubmitWait(bg, testSys.TestItem(i))
					if err != nil {
						t.Fatal(err)
					}
					if out[i], err = tk.Wait(bg); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			plain := run(nil)
			for _, mode := range modes {
				instrumented := run(mode.mut)
				for i := range plain {
					if !reflect.DeepEqual(instrumented[i], plain[i]) {
						t.Fatalf("item %d: %s mode changed the result:\n%+v\nvs\n%+v",
							i, mode.name, instrumented[i], plain[i])
					}
				}
			}
		})
	}
}

// TestTelemetryDisabledInert: without ServeConfig.Telemetry there is no
// registry, no tracer, and no exporter — every surface reports empty.
func TestTelemetryDisabledInert(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, ServeConfig{
		Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.SubmitWait(bg, testSys.TestItem(0).WithID("inert"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Telemetry != nil {
		t.Fatalf("disabled server produced a telemetry snapshot: %d series", len(st.Telemetry))
	}
	if addr := srv.MetricsAddr(); addr != "" {
		t.Fatalf("disabled server bound an exporter at %q", addr)
	}
	if trs := srv.Traces(8); trs != nil {
		t.Fatalf("disabled server recorded traces: %d", len(trs))
	}
	if _, ok := srv.TraceFor("inert"); ok {
		t.Fatal("disabled server retrieved a trace by tag")
	}
}

// TestTelemetryEndToEnd drives a sharded, batched, cache-sharing server
// with the exporter bound, on mixed traffic (test items with ground
// truth, generated external items without), and checks every exposition
// surface: /metrics families, /statusz JSON, /tracez by tag, pprof, the
// ServeStats.Telemetry snapshot, and per-ticket decision traces.
func TestTelemetryEndToEnd(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, ServeConfig{
		Workers:        2,
		Shards:         2,
		DeadlineSec:    0.5,
		MemoryGB:       8,
		TimeScale:      0.001,
		BatchSize:      2,
		PredictorCache: true,
		MetricsAddr:    "127.0.0.1:0", // implies Telemetry
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 6; i++ {
		tk, err := srv.SubmitWait(bg, testSys.TestItem(i).WithID(fmt.Sprintf("item-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}
	// Ingested traffic: no ground truth, so these drive the quality
	// proxy (confidence mass vs predicted residual).
	for i, item := range testSys.GenerateItems(3, 7) {
		tk, err := srv.SubmitWait(bg, item.WithID(fmt.Sprintf("ext-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}

	addr := srv.MetricsAddr()
	if addr == "" {
		t.Fatal("exporter bound no address")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE ams_queue_wait_seconds histogram",
		"ams_queue_wait_seconds_bucket{le=",
		"ams_item_latency_seconds_count",
		"ams_select_seconds_sum",
		"ams_model_exec_total{model=",
		"ams_items_admitted_total",
		`ams_queue_depth{shard="0"}`,
		`ams_queue_depth{shard="1"}`,
		`ams_items_completed_total{shard="0"}`,
		"ams_shard_assigned_total",
		"ams_batch_flush_total{cause=",
		"ams_predcache_hits_total",
		"ams_quality_conf_mass_count",
		"ams_quality_residual_ratio",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var status struct {
		Status  json.RawMessage   `json:"status"`
		Metrics []TelemetryMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(get("/statusz")), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if len(status.Metrics) == 0 || len(status.Status) == 0 {
		t.Fatalf("/statusz empty: %d metrics, %d status bytes", len(status.Metrics), len(status.Status))
	}

	if tz := get("/tracez?tag=item-3"); !strings.Contains(tz, `"item-3"`) {
		t.Errorf("/tracez?tag=item-3 did not return the trace: %s", tz)
	}
	if pp := get("/debug/pprof/cmdline"); pp == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	st := srv.Stats()
	if len(st.Telemetry) == 0 {
		t.Fatal("Stats().Telemetry empty with telemetry on")
	}
	byName := make(map[string]TelemetryMetric)
	for _, m := range st.Telemetry {
		if m.Labels == nil {
			byName[m.Name] = m
		}
	}
	if m := byName["ams_item_latency_seconds"]; m.Count != st.Completed {
		t.Errorf("latency histogram count %d != completed %d (views must agree with Stats)",
			m.Count, st.Completed)
	}
	if m := byName["ams_items_admitted_total"]; int64(m.Value) != st.Completed {
		t.Errorf("admitted %v != completed %d (no shedding in this test)", m.Value, st.Completed)
	}
	if m, ok := byName["ams_quality_conf_mass"]; !ok || m.Count != 3 {
		t.Errorf("quality proxy observed %d ingested items, want 3", m.Count)
	}

	if trs := srv.Traces(4); len(trs) != 4 {
		t.Fatalf("Traces(4) returned %d", len(trs))
	} else {
		spans := trs[0].Spans
		if len(spans) == 0 || spans[len(spans)-1].Name != "commit" {
			t.Fatalf("trace does not end in a commit span: %+v", spans)
		}
		sawPick := false
		for _, sp := range spans {
			if sp.Name == "select" && sp.Model >= 0 {
				sawPick = true
				if sp.RemainingMS <= 0 {
					t.Errorf("select span carries no deadline budget: %+v", sp)
				}
			}
		}
		if !sawPick {
			t.Fatalf("trace has no select span that picked a model: %+v", spans)
		}
	}
	if tr, ok := srv.TraceFor("ext-2"); !ok || tr.Tag != "ext-2" {
		t.Fatalf("TraceFor(ext-2) = %+v, %v", tr, ok)
	}
}

// TestTelemetryCorpusViews: a server over a durable corpus exposes the
// segment's journal and fsync state as labeled series.
func TestTelemetryCorpusViews(t *testing.T) {
	c, err := testSys.OpenCorpus(t.TempDir()+"/corpus.log", CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := testSys.NewServer(testAgent, ServeConfig{
		Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001,
		Corpus: c, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	item, err := testSys.ComposeItem(SceneSpec{ID: "corpus-item", Persons: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := srv.SubmitWait(bg, item)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var records, appends TelemetryMetric
	for _, m := range srv.Stats().Telemetry {
		switch m.Name {
		case "ams_corpus_records_total":
			records = m
		case "ams_corpus_append_seconds":
			appends = m
		}
	}
	if records.Value <= 0 {
		t.Fatalf("corpus journal view reports %v records", records.Value)
	}
	if appends.Count <= 0 {
		t.Fatalf("corpus append histogram observed %d spans", appends.Count)
	}
	if records.Labels["seg"] != "0" {
		t.Fatalf("corpus series missing segment label: %+v", records.Labels)
	}
}
