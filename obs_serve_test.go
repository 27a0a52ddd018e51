package ams

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
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

// catalogConfig is a fully featured server's configuration: 2 shards
// with stealing, batching, an 8 GB budget, a 2-segment corpus, the
// predictor cache, an SLO and a flight directory, every one of which
// registers families of its own. The corpus closes when the test ends.
func catalogConfig(t *testing.T) ServeConfig {
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
	return ServeConfig{
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
}

// catalogItems is the catalog server's traffic: 10 test-split items and
// 30 external ones.
func catalogItems() []Item {
	items := append(testItems(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), testSys.GenerateItems(30, 55)...)
	for i := range items {
		items[i] = items[i].WithID(fmt.Sprintf("catalog-%d", i))
	}
	return items
}

// serveEach submits the items one at a time and waits for each, calling
// after (when non-nil) once each has completed.
func serveEach(t *testing.T, srv *Server, items []Item, after func()) {
	t.Helper()
	for _, item := range items {
		tk, err := srv.SubmitWait(bg, item)
		if err != nil {
			t.Fatal(err)
		}
		mustWait(t, tk)
		if after != nil {
			after()
		}
	}
}

// TestMetricCatalog: serving the catalog server's 40 items, test-split
// and external, adds no series. A family name or a label value built per
// item, per model or per tag would show up as a new family or a new
// series. TestEveryMetricFamilyMoves holds the families to DESIGN.md's
// catalog.
func TestMetricCatalog(t *testing.T) {
	cfg := catalogConfig(t)
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
	items := catalogItems()
	serveEach(t, srv, items, nil)
	after := series()
	for key := range after {
		if !before[key] {
			t.Errorf("serving %d items added the series %s", len(items), key)
		}
	}
	t.Logf("%d families, %d series before serving, %d after", len(telemetryFamilies(srv.Stats().Telemetry)), len(before), len(after))
}

// familyTotals sums each metric family over its series: a histogram's
// observation count, any other series' value.
func familyTotals(ms []TelemetryMetric) map[string]float64 {
	tot := map[string]float64{}
	for _, m := range ms {
		if m.Kind == "histogram" {
			tot[m.Name] += float64(m.Count)
		} else {
			tot[m.Name] += m.Value
		}
	}
	return tot
}

// familyWatch follows one scenario's server: for every metric family,
// the most its total has read above its total when the server was built.
type familyWatch struct {
	t      *testing.T
	srv    *Server
	cfg    ServeConfig
	closed bool
	base   map[string]float64
	moved  map[string]float64
}

// start builds the scenario's server from cfg and takes the baseline
// reading. A scenario that fails before its server closes leaves it to
// close when the test ends.
func (w *familyWatch) start(cfg ServeConfig) *Server {
	w.t.Helper()
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	w.srv, w.cfg = srv, cfg
	w.t.Cleanup(func() {
		if !w.closed {
			srv.Close()
		}
	})
	w.base = familyTotals(srv.Stats().Telemetry)
	return srv
}

// read takes one reading.
func (w *familyWatch) read() {
	for fam, v := range familyTotals(w.srv.Stats().Telemetry) {
		w.moved[fam] = max(w.moved[fam], v-w.base[fam])
	}
}

// await polls a live gauge until it has read at least least above its
// baseline, for at most 5 s.
func (w *familyWatch) await(fam string, least float64) {
	for end := time.Now().Add(5 * time.Second); w.moved[fam] < least && time.Now().Before(end); time.Sleep(time.Millisecond) {
		w.read()
	}
}

// close closes the server, fails the test on what Close and
// auditClosed report, and takes the last reading: the flight
// recorder's final poll runs in Close.
func (w *familyWatch) close() {
	w.t.Helper()
	w.closed = true
	if err := errors.Join(w.srv.Close(), auditClosed(w.srv, w.cfg)); err != nil {
		w.t.Fatal(err)
	}
	w.read()
}

// TestEveryMetricFamilyMoves: every family DESIGN.md's catalog lists has
// a row naming a scenario, run on its own server through the public
// API, and the least amount by which that scenario must move the
// family's total (summed over its series: a histogram's count, any other
// series' value). A live gauge is polled while its scenario holds it up.
// The rows name exactly the catalog's families, and so does the catalog
// server's registry. A family nothing moves answers no question.
func TestEveryMetricFamilyMoves(t *testing.T) {
	const catalogExternal = 30 // catalogItems' external items
	scenarios := map[string]func(w *familyWatch){
		// The fully featured server, serving catalogItems one at a time.
		"catalog": func(w *familyWatch) {
			srv := w.start(catalogConfig(w.t))
			catalog, err := metricCatalog()
			if err != nil {
				w.t.Fatal(err)
			}
			if fams, want := telemetryFamilies(srv.Stats().Telemetry), slices.Sorted(maps.Keys(catalog)); !slices.Equal(fams, want) {
				w.t.Errorf("the registry's families differ from DESIGN.md's metric catalog:\nregistry: %v\ncatalog:  %v", fams, want)
			}
			serveEach(w.t, srv, catalogItems(), w.read)
		},
		// A Results subscriber that never reads, 4 items behind a
		// 4-item window.
		"unread results": func(w *familyWatch) {
			cfg := serveCfg(1)
			cfg.Telemetry, cfg.StatsWindow = true, 4
			srv := w.start(cfg)
			_ = srv.Results()
			serveEach(w.t, srv, testItems(0, 1, 2, 3, 4, 5, 6, 7), nil)
		},
		// An open-loop burst into one worker's one-slot queue sheds
		// most arrivals, and the shed-rate trigger writes a bundle.
		"burst": func(w *familyWatch) { burstScenario(w, w.t.TempDir()) },
		// The same burst with a flight directory that cannot be made:
		// its path runs through a regular file.
		"burst, unwritable flight dir": func(w *familyWatch) {
			file := filepath.Join(w.t.TempDir(), "file")
			if err := os.WriteFile(file, nil, 0o644); err != nil {
				w.t.Fatal(err)
			}
			burstScenario(w, filepath.Join(file, "flight"))
		},
		// A 2-trace ring, 4 items.
		"trace ring of 2": func(w *familyWatch) {
			cfg := serveCfg(1)
			cfg.TraceCapacity = 2
			cfg.Telemetry = true
			serveEach(w.t, w.start(cfg), testItems(0, 1, 2, 3), nil)
		},
		// An objective no item misses: at TimeScale 0.001 a millisecond
		// of wall-clock overhead reads as a simulated second, so the
		// catalog server's items all miss theirs.
		"an hour's SLO": func(w *familyWatch) {
			cfg := serveCfg(1)
			cfg.SLOs = []string{"p99<1h"}
			serveEach(w.t, w.start(cfg), testItems(0, 1, 2, 3), nil)
		},
		// An external item whose admission cannot be journaled: its
		// shard's segment has closed.
		"resolve failure": func(w *familyWatch) {
			c, err := testSys.OpenCorpusDir(filepath.Join(w.t.TempDir(), "corpus.d"), 2, CorpusOptions{})
			if err != nil {
				w.t.Fatal(err)
			}
			cfg := shardedCfg(2, 2)
			cfg.Corpus, cfg.Telemetry = c, true
			srv := w.start(cfg)
			if err := c.Close(); err != nil {
				w.t.Fatal(err)
			}
			tk, err := srv.SubmitWait(bg, testSys.GenerateItems(1, 3)[0])
			if err != nil {
				w.t.Fatal(err)
			}
			if _, err := tk.Wait(bg); err == nil {
				w.t.Fatal("an item whose admission could not be journaled completed")
			}
		},
		// 4 workers contend for a 1 GB budget, 8 items at once.
		"1 GB budget": func(w *familyWatch) {
			cfg := serveCfg(4)
			cfg.MemoryGB, cfg.TimeScale, cfg.Telemetry = 1, 0.01, true
			srv := w.start(cfg)
			tks := submitAll(w.t, srv, testItems(0, 1, 2, 3, 4, 5, 6, 7))
			w.await("ams_mem_inuse_mb", 1)
			for _, tk := range tks {
				mustWait(w.t, tk)
			}
		},
		// 2 one-worker shards with affinity placement and stealing, 16
		// items at once.
		"steal": func(w *familyWatch) {
			cfg := shardedCfg(2, 2)
			cfg.Telemetry = true
			runCorpusStreamVia(w.t, w.start(cfg), testItems(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15))
		},
		// A corpus that holds one item's memos at a time and fsyncs
		// every record, 2 workers, 4 external items at once.
		"MaxResident 1, SyncEveryN 1": func(w *familyWatch) {
			c, err := testSys.OpenCorpus(filepath.Join(w.t.TempDir(), "corpus.wal"), CorpusOptions{MaxResident: 1, SyncEveryN: 1})
			if err != nil {
				w.t.Fatal(err)
			}
			w.t.Cleanup(func() {
				if err := c.Close(); err != nil {
					w.t.Error(err)
				}
			})
			cfg := corpusCfg(2)
			cfg.Corpus, cfg.TimeScale, cfg.Telemetry = c, 0.01, true
			srv := w.start(cfg)
			tks := submitAll(w.t, srv, testSys.GenerateItems(4, 71))
			w.await("ams_corpus_resident", 1)
			for _, tk := range tks {
				mustWait(w.t, tk)
			}
		},
	}
	rows := []struct {
		family, scenario string
		least            float64
	}{
		{"ams_queue_wait_seconds", "catalog", 40},
		{"ams_select_seconds", "catalog", 40},
		{"ams_item_latency_seconds", "catalog", 40},
		{"ams_model_exec_seconds", "catalog", 40},
		{"ams_items_completed_total", "catalog", 40},
		{"ams_shard_assigned_total", "catalog", 40},
		{"ams_mem_peak_mb", "catalog", 1},
		{"ams_batch_size", "catalog", 1},
		{"ams_batch_hold_seconds", "catalog", 1},
		{"ams_batch_flush_total", "catalog", 1},
		{"ams_corpus_append_seconds", "catalog", 2 * catalogExternal},
		{"ams_corpus_items", "catalog", catalogExternal},
		{"ams_corpus_journal_bytes", "catalog", 1},
		{"ams_corpus_unsynced", "catalog", 2 * catalogExternal},
		{"ams_predcache_hits_total", "catalog", 1},
		{"ams_predcache_misses_total", "catalog", 1},
		{"ams_predcache_entries", "catalog", 1},
		{"ams_slo_good_total", "an hour's SLO", 4},
		{"ams_slo_bad_total", "catalog", 1},
		{"ams_slo_burn_rate", "catalog", 1},
		{"ams_results_dropped_total", "unread results", 4},
		{"ams_items_shed_total", "burst", 1},
		{"ams_queue_depth", "burst", 1},
		{"ams_shard_inflight", "burst", 1},
		{"ams_flight_dumps_total", "burst", 1},
		{"ams_flight_errors_total", "burst, unwritable flight dir", 1},
		{"ams_trace_evicted_total", "trace ring of 2", 2},
		{"ams_shard_failures_total", "resolve failure", 1},
		{"ams_mem_inuse_mb", "1 GB budget", 1},
		{"ams_mem_reserve_wait_seconds", "1 GB budget", 1},
		{"ams_mem_stalls_total", "1 GB budget", 1},
		{"ams_shard_steals_total", "steal", 1},
		{"ams_shard_stolen_from_total", "steal", 1},
		{"ams_corpus_evicted_total", "MaxResident 1, SyncEveryN 1", 4},
		{"ams_corpus_resident", "MaxResident 1, SyncEveryN 1", 1},
		{"ams_corpus_syncs_total", "MaxResident 1, SyncEveryN 1", 1},
		{"ams_corpus_fsync_seconds", "MaxResident 1, SyncEveryN 1", 1},
	}

	catalog, err := metricCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var fams []string
	for _, r := range rows {
		fams = append(fams, r.family)
		if scenarios[r.scenario] == nil {
			t.Fatalf("row %s names no scenario %q", r.family, r.scenario)
		}
	}
	if slices.Sort(fams); !slices.Equal(fams, slices.Sorted(maps.Keys(catalog))) {
		t.Fatalf("the rows' families differ from DESIGN.md's metric catalog:\nrows:    %v\ncatalog: %v", fams, slices.Sorted(maps.Keys(catalog)))
	}
	for _, name := range slices.Sorted(maps.Keys(scenarios)) {
		t.Run(name, func(t *testing.T) {
			w := &familyWatch{t: t, moved: map[string]float64{}}
			scenarios[name](w)
			w.close()
			for _, r := range rows {
				if r.scenario != name {
					continue
				}
				if got := w.moved[r.family]; got < r.least {
					t.Errorf("%s moved by %v, want at least %v", r.family, got, r.least)
				} else {
					t.Logf("%s moved by %v (least %v)", r.family, got, r.least)
				}
			}
		})
	}
}

// burstScenario replays an open-loop 10 Hz trace of 200 test-split
// arrivals against one worker and a one-slot queue at TimeScale 0.05 —
// one second of wall time — and polls the queue depth and the worker's
// in-flight gauge while it runs.
func burstScenario(w *familyWatch, flightDir string) {
	srv := w.start(ServeConfig{Workers: 1, QueueCap: 1, DeadlineSec: 2, MemoryGB: 8, TimeScale: 0.05, FlightDir: flightDir})
	done := make(chan error, 1)
	go func() {
		done <- srv.Replay(bg, ServeTrace{ArrivalRateHz: 10, Items: 200, Seed: 1, OpenLoop: true}, nil)
	}()
	w.await("ams_queue_depth", 1)
	w.await("ams_shard_inflight", 1)
	if err := <-done; err != nil {
		w.t.Fatal(err)
	}
}

// submitAll submits every item without waiting for any.
func submitAll(t *testing.T, srv *Server, items []Item) []*ServeTicket {
	t.Helper()
	tks := make([]*ServeTicket, len(items))
	for i, item := range items {
		var err error
		if tks[i], err = srv.SubmitWait(bg, item); err != nil {
			t.Fatal(err)
		}
	}
	return tks
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
	// Ingested traffic: no ground truth.
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
		"ams_model_exec_seconds_count{model=",
		`ams_queue_depth{shard="0"}`,
		`ams_queue_depth{shard="1"}`,
		`ams_items_completed_total{shard="0"}`,
		"ams_shard_assigned_total",
		`ams_shard_inflight{shard="1"}`,
		"ams_batch_flush_total{cause=",
		"ams_predcache_hits_total",
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
	// once, so every series that shows it agrees. What was admitted is
	// what the router placed.
	admitted, completed, failed := sum["ams_shard_assigned_total"], sum["ams_items_completed_total"], sum["ams_shard_failures_total"]
	if admitted != completed+failed || int64(completed) != st.Completed || admitted == 0 {
		t.Errorf("assigned %v != completed %v + failed %v (ServeStats.Completed %d)", admitted, completed, failed, st.Completed)
	}
	if flushes, sizes := sum["ams_batch_flush_total"], count["ams_batch_size"]; flushes != float64(sizes) ||
		sizes != st.Batches || st.Batches == 0 {
		t.Errorf("ams_batch_flush_total sums to %v, ams_batch_size counts %d, ServeStats.Batches %d", flushes, sizes, st.Batches)
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
// segment's journal as labeled series, and the append histogram counts
// every record the journal appended.
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
	var appends TelemetryMetric
	for _, m := range srv.Stats().Telemetry {
		if m.Name == "ams_corpus_append_seconds" {
			appends = m
		}
	}
	if records := c.Stats().JournalRecords; appends.Count != records || records <= 0 {
		t.Fatalf("corpus append histogram observed %d appends, the journal holds %d records appended since open", appends.Count, records)
	}
	if appends.Labels["seg"] != "0" {
		t.Fatalf("corpus series missing segment label: %+v", appends.Labels)
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
