package ams

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestTelemetryBitIdenticalAcrossPolicies: turning telemetry on must not
// change a single byte of any schedule — instruments observe decisions,
// they never participate in them — and neither may the shape of the
// pool. Every registry policy, the stochastic one included (its stream
// restarts at every item from the seed and the item's scene seed, so it
// does not matter which worker dequeues it or which slot a shard ingests
// it into), runs the same item stream — test-split items and external
// ones, which each shard numbers by arrival — at 1, 2 and 4 workers and
// over 2 shards, each in three modes — bare, plain telemetry, and the
// full span-tracing stack (sized tracer ring plus SLO burn accounting) —
// and every delivered result must match the bare one-worker run exactly:
// executed models, order, nominal times, labels, recall.
func TestTelemetryBitIdenticalAcrossPolicies(t *testing.T) {
	stream := append(testItems(0, 1, 2, 3, 4, 5), testSys.GenerateItems(4, 31)...)
	modes := []struct {
		name string
		mut  func(*ServeConfig)
	}{
		{"bare", func(*ServeConfig) {}},
		{"telemetry", func(c *ServeConfig) { c.Telemetry = true }},
		{"spans+slo", func(c *ServeConfig) {
			c.Telemetry = true
			c.TraceCapacity = 64
			c.SLOs = []string{"p99<400ms", "tight:p50<50ms"}
		}},
	}
	pools := []struct{ workers, shards int }{{1, 1}, {2, 1}, {4, 1}, {2, 2}}
	for _, pol := range registryPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			run := func(workers, shards int, mut func(*ServeConfig)) []*Result {
				cfg := ServeConfig{
					Workers:        workers,
					Shards:         shards,
					Policy:         pol,
					DeadlineSec:    0.5,
					MemoryGB:       8 * float64(shards), // the budget divides across shards: 8 GB per accountant
					TimeScale:      0.001,
					BatchSize:      2,
					PredictorCache: true,
				}
				mut(&cfg)
				srv, err := testSys.NewServer(testAgent, cfg)
				if err != nil {
					t.Fatal(err)
				}
				closeAtCleanup(t, srv, cfg)
				out := make([]*Result, len(stream))
				for i, item := range stream {
					tk, err := srv.SubmitWait(bg, item)
					if err != nil {
						t.Fatal(err)
					}
					if out[i], err = tk.Wait(bg); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			var plain []*Result
			for _, pool := range pools {
				for _, mode := range modes {
					got := run(pool.workers, pool.shards, mode.mut)
					if plain == nil {
						plain = got
						continue
					}
					for i := range plain {
						if !reflect.DeepEqual(got[i], plain[i]) {
							t.Fatalf("item %d: %d workers, %d shards, %s mode changed the result:\n%+v\nvs\n%+v",
								i, pool.workers, pool.shards, mode.name, got[i], plain[i])
						}
					}
				}
			}
		})
	}
}

// TestTelemetryDisabledInert: without ServeConfig.Telemetry there is no
// registry, no tracer, and no exporter — every surface reports empty.
func TestTelemetryDisabledInert(t *testing.T) {
	cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, srv, cfg)
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
	if _, ok := srv.tracer.ByTag("inert"); ok {
		t.Fatal("disabled server retrieved a trace by tag")
	}
}

// TestMetricCatalog holds a fully featured server's registry to
// DESIGN.md's metric catalog: it registers exactly the families the
// catalog table lists, and serving 40 items, test-split and external,
// adds no series. A family name or a label value built per item, per
// model or per tag would show up as a new family or a new series.
func TestMetricCatalog(t *testing.T) {
	catalog, err := metricCatalog()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := testSys.OpenCorpusDir(filepath.Join(dir, "corpus.d"), 2, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	cfg := ServeConfig{
		Workers:        4,
		Shards:         2,
		ShardSteal:     true,
		DeadlineSec:    0.5,
		MemoryGB:       8,
		TimeScale:      0.001,
		BatchSize:      2,
		Corpus:         c,
		PredictorCache: true,
		SLOs:           []string{"p99<250ms"},
		FlightDir:      filepath.Join(dir, "flight"),
	}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, srv, cfg)

	series := func() map[string]bool {
		set := map[string]bool{}
		for _, m := range srv.Stats().Telemetry {
			key := m.Name
			for _, k := range slices.Sorted(maps.Keys(m.Labels)) {
				key += fmt.Sprintf(" %s=%q", k, m.Labels[k])
			}
			set[key] = true
		}
		return set
	}
	before := series()
	items := append(testItems(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), testSys.GenerateItems(30, 55)...)
	for i, item := range items {
		tk, err := srv.SubmitWait(bg, item.WithID(fmt.Sprintf("catalog-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}
	for key := range series() {
		if !before[key] {
			t.Errorf("serving %d items added the series %s", len(items), key)
		}
	}

	fams := telemetryFamilies(srv.Stats().Telemetry)
	if want := slices.Sorted(maps.Keys(catalog)); !slices.Equal(fams, want) {
		t.Errorf("the registry's families differ from DESIGN.md's metric catalog:\nregistry: %v\ncatalog:  %v", fams, want)
	}
}

// TestTelemetryEndToEnd drives a sharded, batched, cache-sharing server
// with the exporter bound, on mixed traffic (test items with ground
// truth, generated external items without), and checks every exposition
// surface: /metrics families, /statusz JSON, /tracez by tag, pprof, the
// ServeStats.Telemetry snapshot, and per-ticket decision traces.
func TestTelemetryEndToEnd(t *testing.T) {
	cfg := ServeConfig{
		Workers:        2,
		Shards:         2,
		DeadlineSec:    0.5,
		MemoryGB:       8,
		TimeScale:      0.001,
		BatchSize:      2,
		PredictorCache: true,
		MetricsAddr:    "127.0.0.1:0", // implies Telemetry
	}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, srv, cfg)

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
		`ams_shard_inflight{shard="1"}`,
		"ams_batch_flush_total{cause=",
		"ams_predcache_hits_total",
		"ams_quality_conf_mass_count",
		"ams_quality_residual_ratio",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A shard has one queue, its server's: no router-side duplicate of
	// its depth or of its sheds.
	for _, gone := range []string{"ams_shard_pending", "ams_shard_rejected_total"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics still exposes %q", gone)
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
	// Per family, over every label set: the summed value, and for a
	// histogram the summed count.
	sum, count := make(map[string]float64), make(map[string]int64)
	for _, m := range st.Telemetry {
		if m.Labels == nil {
			byName[m.Name] = m
		}
		sum[m.Name] += m.Value
		count[m.Name] += m.Count
	}
	if m := byName["ams_item_latency_seconds"]; m.Count != st.Completed {
		t.Errorf("latency histogram count %d != completed %d (views must agree with Stats)",
			m.Count, st.Completed)
	}
	// Conservation, once the server is quiescent: every event is counted
	// once, so every series that shows it agrees.
	admitted, completed, failed := sum["ams_items_admitted_total"], sum["ams_items_completed_total"], sum["ams_shard_failures_total"]
	if admitted != completed+failed || int64(completed) != st.Completed || admitted == 0 {
		t.Errorf("admitted %v != completed %v + failed %v (ServeStats.Completed %d)", admitted, completed, failed, st.Completed)
	}
	if execs, observed := sum["ams_model_exec_total"], count["ams_model_exec_seconds"]; execs != float64(observed) || execs == 0 {
		t.Errorf("ams_model_exec_total sums to %v, ams_model_exec_seconds counts %d", execs, observed)
	}
	if flushes, sizes := sum["ams_batch_flush_total"], count["ams_batch_size"]; flushes != float64(sizes) ||
		sizes != st.Batches || st.Batches == 0 {
		t.Errorf("ams_batch_flush_total sums to %v, ams_batch_size counts %d, ServeStats.Batches %d", flushes, sizes, st.Batches)
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
	if tr, ok := srv.tracer.ByTag("ext-2"); !ok || tr.Tag != "ext-2" {
		t.Fatalf("ByTag(ext-2) = %+v, %v", tr, ok)
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

// TestTelemetryAllocationOverhead bounds what Telemetry: true may cost an
// item in heap allocations — a count, which a loaded host cannot blur the
// way it blurs the wall-clock ratio of an instrumented and an
// uninstrumented benchmark — measured by leastAllocsPerItem over the two
// servers in interleaved rounds. Measured: 0.01 extra allocations per
// item (8.00 → 8.01 under Algorithm 1), since the tracer recycles its
// published traces; it was 6.01 (the trace record and its span slice,
// 8.00 → 14.01) before, and 65.21 → 71.22 before the serving worker
// reused its per-item state. The bound leaves room for two more, not for
// a second record per item.
func TestTelemetryAllocationOverhead(t *testing.T) {
	const bound = 8
	var srvs [2]*Server // telemetry off, on
	for i := range srvs {
		cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e-6, Telemetry: i == 1}
		var err error
		srvs[i], err = testSys.NewServer(testAgent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		closeAtCleanup(t, srvs[i], cfg)
	}
	least := leastAllocsPerItem(t, srvs[:]...)
	t.Logf("allocations per item: %.2f without telemetry, %.2f with", least[0], least[1])
	if extra := least[1] - least[0]; extra > bound {
		t.Fatalf("Telemetry costs %.2f allocations per item (%.2f → %.2f), bound %d", extra, least[0], least[1], bound)
	}
}
