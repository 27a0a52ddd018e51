package ams

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ams/internal/oracle"
	"ams/internal/shard"
	"ams/internal/zoo"
)

// serveCfg is the shared fast-clock server configuration: a millisecond
// of model time sleeps a microsecond.
func serveCfg(workers int) ServeConfig {
	return ServeConfig{Workers: workers, DeadlineSec: 0.5, TimeScale: 0.001}
}

// replayTrace replays trace through a fresh server and returns its
// statistics once every admitted item has completed: NewServer, Replay
// and Close. Its error also carries whatever auditClosed finds.
func replayTrace(ctx context.Context, agent *Agent, cfg ServeConfig, trace ServeTrace, src SceneSource) (ServeStats, error) {
	srv, err := testSys.NewServer(agent, cfg)
	if err != nil {
		return ServeStats{}, err
	}
	err = srv.Replay(ctx, trace, src)
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return srv.Stats(), errors.Join(err, auditClosed(srv, cfg))
}

// auditClosed checks the invariants a closed server built from cfg must
// hold: every placed item completed or failed (the shards' Assigned
// sum to Completed + Failed), no shard reserved more than its share of
// the memory budget, no more results were dropped than completed, the
// stats window holds at most its capacity, and every metric family a
// telemetry server registered is in DESIGN.md's metric catalog.
func auditClosed(srv *Server, cfg ServeConfig) error {
	st := srv.Stats()
	var errs []error
	var assigned int64
	share := cfg.MemoryGB / float64(len(st.PerShard)) * 1024
	for _, ps := range st.PerShard {
		assigned += ps.Assigned
		if cfg.MemoryGB > 0 && ps.PeakMemMB > share {
			errs = append(errs, fmt.Errorf("audit: shard %d peaked at %v MB, over its %v MB share", ps.Shard, ps.PeakMemMB, share))
		}
	}
	if assigned != st.Completed+st.Failed {
		errs = append(errs, fmt.Errorf("audit: %d items placed, %d completed + %d failed", assigned, st.Completed, st.Failed))
	}
	if st.ResultsDropped > st.Completed {
		errs = append(errs, fmt.Errorf("audit: %d results dropped of %d completed", st.ResultsDropped, st.Completed))
	}
	if st.Items > srv.window {
		errs = append(errs, fmt.Errorf("audit: %d items in a stats window of %d", st.Items, srv.window))
	}
	if st.Telemetry != nil {
		if catalog, err := metricCatalog(); err != nil {
			errs = append(errs, err)
		} else {
			for _, fam := range telemetryFamilies(st.Telemetry) {
				if !catalog[fam] {
					errs = append(errs, fmt.Errorf("audit: metric family %s is not in DESIGN.md's metric catalog", fam))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// metricCatalog returns the family names DESIGN.md §8's "Metric catalog"
// table lists: every backticked ams_* name in the table's rows, labels
// left off.
var metricCatalog = sync.OnceValues(func() (map[string]bool, error) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		return nil, err
	}
	_, sec, ok := strings.Cut(string(design), "\n### Metric catalog\n")
	if !ok {
		return nil, errors.New("DESIGN.md has no Metric catalog section")
	}
	sec, _, _ = strings.Cut(sec, "\n#")
	name := regexp.MustCompile("`(ams_[a-z0-9_]+)")
	catalog := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "|") {
			for _, m := range name.FindAllStringSubmatch(line, -1) {
				catalog[m[1]] = true
			}
		}
	}
	if len(catalog) == 0 {
		return nil, errors.New("DESIGN.md's Metric catalog table names no ams_* family")
	}
	return catalog, nil
})

// telemetryFamilies returns the distinct family names of a telemetry
// snapshot, in its order (sorted by name).
func telemetryFamilies(ms []TelemetryMetric) []string {
	var fams []string
	for _, m := range ms {
		if len(fams) == 0 || fams[len(fams)-1] != m.Name {
			fams = append(fams, m.Name)
		}
	}
	return fams
}

// closeAtCleanup closes srv, built from cfg, when the test ends, and
// fails the test on Close's error (memory still held, item traces never
// ended) and on whatever auditClosed finds.
func closeAtCleanup(t testing.TB, srv *Server, cfg ServeConfig) {
	t.Cleanup(func() {
		if err := errors.Join(srv.Close(), auditClosed(srv, cfg)); err != nil {
			t.Error(err)
		}
	})
}

// mustWait waits for a ticket without a cancellation deadline.
func mustWait(t testing.TB, tk *ServeTicket) *Result {
	t.Helper()
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return res
}

// TestServerLabelsLikeLabel: at one worker nothing contends, so the
// server — the executor on the real machine — must reproduce the library
// — the same executor on the virtual machine — exactly, for every
// registry policy under the server's own budget, over the whole test
// split and a few external items. The reference is one LabelBatchWith
// worker, which like the server's worker 0 carries one policy instance
// across the items in order. At 1 GB the memory budget binds: models
// that do not fit are skipped (serial) or wait for headroom (parallel).
func TestServerLabelsLikeLabel(t *testing.T) {
	items := make([]Item, testSys.NumTestImages())
	for i := range items {
		items[i] = testSys.TestItem(i)
	}
	items = append(items, testSys.GenerateItems(4, 9)...)
	for _, pol := range registryPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			for _, b := range []Budget{{DeadlineSec: 0.5, MemoryGB: 8}, {DeadlineSec: 0.8, MemoryGB: 8}, {DeadlineSec: 0.5, MemoryGB: 1}} {
				t.Run(fmt.Sprintf("%gs_%gGB", b.DeadlineSec, b.MemoryGB), func(t *testing.T) {
					want, _, err := testSys.LabelBatchWith(bg, pol, testAgent, items, b, 1)
					if err != nil {
						t.Fatal(err)
					}
					srv, err := testSys.NewServer(testAgent, ServeConfig{Workers: 1, Policy: pol,
						DeadlineSec: b.DeadlineSec, MemoryGB: b.MemoryGB, TimeScale: 0.001})
					if err != nil {
						t.Fatalf("NewServer: %v", err)
					}
					defer srv.Close() // on a failed row; the row closes it first
					for i, item := range items {
						tk, err := srv.SubmitWait(bg, item)
						if err != nil {
							t.Fatalf("SubmitWait: %v", err)
						}
						if got := mustWait(t, tk); !reflect.DeepEqual(got, want[i]) {
							t.Fatalf("item %d: server result diverges from the library's:\n%+v\nvs\n%+v", i, got, want[i])
						}
					}
					if err := srv.Close(); err != nil {
						t.Fatal(err)
					}
					if peak := srv.Stats().PeakMemMB; peak <= 0 || peak > b.MemoryGB*1024+1e-9 {
						t.Fatalf("peak memory %v MB outside (0, %v]", peak, b.MemoryGB*1024)
					}
				})
			}
		})
	}
}

// TestServerConcurrentSubmits hammers one server from many goroutines
// under a shared memory budget — the public-API race test.
func TestServerConcurrentSubmits(t *testing.T) {
	cfg := serveCfg(4)
	cfg.MemoryGB = 8 // 8192 MB shared across 4 workers forces contention
	cfg.QueueCap = 8
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	const (
		goroutines = 6
		perG       = 20
	)
	var wg sync.WaitGroup
	results := make([][]*Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				img := (g*perG + i) % testSys.NumTestImages()
				tk, err := srv.SubmitWait(context.Background(), testSys.TestItem(img))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				results[g] = append(results[g], mustWait(t, tk))
			}
		}(g)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if stats.Items != goroutines*perG {
		t.Fatalf("completed %d items, want %d", stats.Items, goroutines*perG)
	}
	if stats.Completed != int64(goroutines*perG) {
		t.Fatalf("total completions %d, want %d", stats.Completed, goroutines*perG)
	}
	if stats.PeakMemMB <= 0 || stats.PeakMemMB > 8*1024+1e-9 {
		t.Fatalf("peak memory %v MB outside (0, 8192]", stats.PeakMemMB)
	}
	// A one-shard server is routed like any other: one breakdown entry.
	if stats.Shards != 1 || len(stats.PerShard) != 1 || stats.PerShard[0].Completed != stats.Completed {
		t.Fatalf("one-shard server reports %d shards, breakdown %+v", stats.Shards, stats.PerShard)
	}
	for _, rs := range results {
		for _, r := range rs {
			if r.Recall < 0 || r.Recall > 1+1e-9 || r.TimeSec > 0.5+1e-9 {
				t.Fatalf("bad result %+v", r)
			}
		}
	}
}

// TestServeMatchesSimulateServe is the sim-vs-real parity check: the
// per-item schedules are deterministic and both paths cycle the same
// images, so average recall must agree to float precision even though
// one run is real concurrent execution and the other is virtual time.
func TestServeMatchesSimulateServe(t *testing.T) {
	// Algorithm 2 runs per-item parallel in both; at one worker no other
	// item holds memory, so its schedules are deterministic too.
	alg2 := serveCfg(1)
	alg2.Policy, alg2.MemoryGB = PolicyAlgorithm2, 8
	for _, cfg := range []ServeConfig{serveCfg(2), alg2} {
		trace := ServeTrace{ArrivalRateHz: 1000, Items: 40, Seed: 5}
		real, err := replayTrace(bg, testAgent, cfg, trace, nil)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		sim, err := testSys.SimulateServe(testAgent, cfg, trace)
		if err != nil {
			t.Fatalf("SimulateServe: %v", err)
		}
		if real.Items != sim.Items {
			t.Fatalf("items %d vs %d", real.Items, sim.Items)
		}
		if math.Abs(real.AvgRecall-sim.AvgRecall) > 1e-9 {
			t.Fatalf("real recall %v diverges from sim %v", real.AvgRecall, sim.AvgRecall)
		}
		if real.ThroughputHz <= 0 || sim.ThroughputHz <= 0 {
			t.Fatalf("throughput %v / %v", real.ThroughputHz, sim.ThroughputHz)
		}
	}
}

func TestServeAdmissionValidation(t *testing.T) {
	trace := ServeTrace{ArrivalRateHz: 100, Items: 5, Seed: 1}
	nan, inf := math.NaN(), math.Inf(1)
	other, err := New(Config{NumImages: 50})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.OpenCorpus(filepath.Join(t.TempDir(), "foreign.wal"), CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	split, err := testSys.OpenCorpusDir(filepath.Join(t.TempDir(), "split.d"), 2, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer split.Close()
	_, sloErr := ParseSLO("garbage")
	// labelErr is Label's refusal of cfg's budget: the server surfaces
	// read a budget in the same domain, in the same words.
	labelErr := func(cfg ServeConfig) string {
		_, err := testSys.Label(bg, testAgent, testSys.TestItem(0), Budget{DeadlineSec: cfg.DeadlineSec, MemoryGB: cfg.MemoryGB})
		if err == nil {
			return "(Label accepted the budget)"
		}
		return err.Error()
	}
	// scaleErr names the caller's time scale: the server's clock, wall
	// time divided by it, would leave the float range.
	scaleErr := func(cfg ServeConfig) string {
		return fmt.Sprintf("ams: serve: time scale %v is below 1e-09: a simulated second would be shorter than a nanosecond", cfg.TimeScale)
	}
	for _, tc := range []struct {
		name string
		cfg  ServeConfig
		want func(ServeConfig) string // the error every surface must return; nil: any one error
	}{
		{"zero workers", ServeConfig{Workers: 0, DeadlineSec: 0.5, TimeScale: 0.001}, nil},
		{"fewer workers than shards", ServeConfig{Workers: 1, Shards: 2, DeadlineSec: 0.5, TimeScale: 0.001}, nil},
		{"negative shards", ServeConfig{Workers: 1, Shards: -1, DeadlineSec: 0.5, TimeScale: 0.001}, nil},
		{"no deadline", ServeConfig{Workers: 2, DeadlineSec: 0, TimeScale: 0.001}, nil},
		{"NaN deadline", ServeConfig{Workers: 1, DeadlineSec: nan, TimeScale: 0.001}, labelErr},
		{"infinite deadline", ServeConfig{Workers: 1, DeadlineSec: inf, TimeScale: 0.001}, labelErr},
		{"overflowing deadline", ServeConfig{Workers: 1, DeadlineSec: 1e306, TimeScale: 0.001}, labelErr},
		{"exhausted memory budget", ServeConfig{Workers: 2, DeadlineSec: 0.5, MemoryGB: 0.1, TimeScale: 0.001}, nil},
		{"NaN memory budget", ServeConfig{Workers: 1, DeadlineSec: 0.5, MemoryGB: nan, TimeScale: 0.001}, labelErr},
		{"infinite memory budget", ServeConfig{Workers: 1, DeadlineSec: 0.5, MemoryGB: inf, TimeScale: 0.001}, labelErr},
		{"overflowing memory budget", ServeConfig{Workers: 1, DeadlineSec: 0.5, MemoryGB: 1e306, TimeScale: 0.001}, labelErr},
		{"negative queue", ServeConfig{Workers: 2, DeadlineSec: 0.5, QueueCap: -1, TimeScale: 0.001}, nil},
		{"negative batch size", ServeConfig{Workers: 1, DeadlineSec: 0.5, BatchSize: -2, TimeScale: 0.001}, nil},
		{"NaN batch hold", ServeConfig{Workers: 1, DeadlineSec: 0.5, BatchSize: 2, BatchHoldMS: nan, TimeScale: 0.001}, nil},
		{"infinite batch hold", ServeConfig{Workers: 1, DeadlineSec: 0.5, BatchSize: 2, BatchHoldMS: inf, TimeScale: 0.001}, nil},
		{"negative time scale", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: -1}, nil},
		{"NaN time scale", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: nan}, nil},
		{"infinite time scale", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: inf}, nil},
		{"overflowing time scale", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e12}, nil},
		{"subnormal time scale", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 5e-324}, scaleErr},
		{"sub-nanosecond time scale", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e-300}, scaleErr},
		{"unknown placement", ServeConfig{Workers: 2, Shards: 2, DeadlineSec: 0.5, TimeScale: 0.001, ShardPlacement: "bogus"}, nil},
		{"bad SLO spec", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, SLOs: []string{"garbage"}},
			func(ServeConfig) string { return sloErr.Error() }},
		{"negative trace capacity", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, Telemetry: true, TraceCapacity: -5}, nil},
		{"negative stats window", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, StatsWindow: -1},
			func(ServeConfig) string { return "ams: negative stats window -1" }},
		{"corpus from another system", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, Corpus: foreign}, nil},
		{"corpus with the wrong segment count", ServeConfig{Workers: 2, DeadlineSec: 0.5, TimeScale: 0.001, Corpus: split}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, nerr := testSys.NewServer(testAgent, tc.cfg)
			if nerr == nil {
				srv.Close()
				t.Fatalf("NewServer accepted %+v", tc.cfg)
			}
			if tc.want != nil && nerr.Error() != tc.want(tc.cfg) {
				t.Fatalf("NewServer: %v, want %v", nerr, tc.want(tc.cfg))
			}
			// The simulation applies the server's rules, in the server's words.
			if _, serr := testSys.SimulateServe(testAgent, tc.cfg, trace); serr == nil || serr.Error() != nerr.Error() {
				t.Fatalf("SimulateServe: %v; NewServer: %v; want one error from both", serr, nerr)
			}
		})
	}
	if _, err := testSys.NewServer(nil, serveCfg(1)); err == nil {
		t.Fatal("nil agent accepted")
	}
	if _, err := testSys.SimulateServe(nil, serveCfg(1), trace); err == nil {
		t.Fatal("nil agent accepted by SimulateServe")
	}
	// The last two rows' worst-case horizons are +Inf s and, scaled by
	// serveCfg's TimeScale, past the time.Duration range; Replay runs
	// under a timeout so a trace that waits forever fails instead.
	for _, bad := range []ServeTrace{{}, {ArrivalRateHz: nan, Items: 5}, {ArrivalRateHz: inf, Items: 5},
		{ArrivalRateHz: 1e-320, Items: 3}, {ArrivalRateHz: 1e-300, Items: 3}} {
		_, serr := testSys.SimulateServe(testAgent, serveCfg(1), bad)
		if serr == nil {
			t.Fatalf("SimulateServe accepted trace %+v", bad)
		}
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		_, err := replayTrace(ctx, testAgent, serveCfg(1), bad, nil)
		cancel()
		if err == nil || err.Error() != serr.Error() {
			t.Fatalf("Replay: %v; SimulateServe: %v; want one error from both for trace %+v", err, serr, bad)
		}
	}
}

// TestStatsWindowIsServerWide: StatsWindow bounds the records Stats
// summarizes for the whole server, however many shards it has, and the
// window holds the server's newest completions, so once it wraps the
// windowed throughput and utilization are measured over the window's own
// span instead of decaying with the server's age, while Completed counts
// everything.
func TestStatsWindowIsServerWide(t *testing.T) {
	const window, items = 4, 40
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			cfg := serveCfg(4)
			cfg.Shards, cfg.ShardPlacement, cfg.StatsWindow = shards, "hash", window
			built := time.Now() // no later than the server's epoch
			srv, err := testSys.NewServer(testAgent, cfg)
			if err != nil {
				t.Fatal(err)
			}
			epoch := time.Now() // no earlier than the server's epoch
			var lastSubmit time.Time
			for i := 0; i < items; i++ {
				lastSubmit = time.Now()
				tk, err := srv.SubmitWait(bg, testSys.TestItem(i%testSys.NumTestImages()))
				if err != nil {
					t.Fatal(err)
				}
				mustWait(t, tk) // one at a time: the last submitted completes last
			}
			done := time.Now()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			if st.Items != window || st.Completed != items {
				t.Fatalf("window of %d items of %d completed, want %d of %d", st.Items, st.Completed, window, items)
			}
			var perItems int
			var perCompleted int64
			for _, ps := range st.PerShard {
				perItems += ps.Items
				perCompleted += ps.Completed
			}
			if perItems != window || perCompleted != items {
				t.Fatalf("per-shard windows sum to %d items of %d completed, want %d of %d: %+v",
					perItems, perCompleted, window, items, st.PerShard)
			}
			// The horizon is the newest completion: the last item's, which
			// was submitted after every other completed.
			lo, hi := lastSubmit.Sub(epoch).Seconds()/cfg.TimeScale, done.Sub(built).Seconds()/cfg.TimeScale
			if st.HorizonSec < lo || st.HorizonSec > hi {
				t.Fatalf("horizon %v s outside [%v, %v], the last item's submit to its completion", st.HorizonSec, lo, hi)
			}
			if st.ThroughputHz <= 0 {
				t.Fatalf("windowed throughput %v", st.ThroughputHz)
			}
			if st.Utilization <= 0 || st.Utilization > 1+1e-6 {
				t.Fatalf("windowed utilization %v out of range", st.Utilization)
			}
		})
	}
}

// TestStatsWhileServing polls Stats while two shards' workers publish
// into the one stats window: every read is self-consistent, the window
// never holding more than StatsWindow records or more than were
// completed, on the whole server and on each shard.
func TestStatsWhileServing(t *testing.T) {
	const window, goroutines, each = 8, 4, 25
	cfg := serveCfg(4)
	cfg.Shards, cfg.ShardPlacement, cfg.ShardSteal, cfg.StatsWindow = 2, "hash", true, window
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop, polled := make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Stats()
			if st.Items > window || int64(st.Items) > st.Completed {
				polled <- fmt.Errorf("stats window holds %d items of %d completed (window %d)", st.Items, st.Completed, window)
				return
			}
			for _, ps := range st.PerShard {
				if int64(ps.Items) > ps.Completed {
					polled <- fmt.Errorf("shard %d: %d items in the window of %d completed", ps.Shard, ps.Items, ps.Completed)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := srv.SubmitWait(bg, testSys.TestItem((g*each+i)%testSys.NumTestImages())); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Items != window || st.Completed != goroutines*each {
		t.Fatalf("after close: %d items of %d completed, want %d of %d", st.Items, st.Completed, window, goroutines*each)
	}
}

// TestReplayDrawsArrivalsLazily: Replay draws each arrival when it is
// due, so serving one item of a ten-million-item trace costs what the
// one item costs, not a slice of every arrival (80 MB).
func TestReplayDrawsArrivalsLazily(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, serveCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = srv.Replay(bg, ServeTrace{ArrivalRateHz: 1e6, Items: 10_000_000, Seed: 1}, ItemSource(testSys.TestItem(0)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("replaying one item allocated %d bytes, want < 1 MB", n)
	}
}

// FuzzServeConfig: NewServer and SimulateServe accept or refuse every
// configuration together, with one error text, and neither panics. An
// accepted configuration serves what it accepts: rebuilt at a fast clock
// (a fuzzed TimeScale may sleep for hours, a batch hold for as long), or
// at its own when that is faster, a server labels one item exactly as
// LabelWith does under one shard's budget, and every float of its stats
// is finite. The pool-sizing fields are clamped so no input starts a
// large pool.
func FuzzServeConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []ServeConfig{
		{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001},
		{Workers: 4, Shards: 2, DeadlineSec: 0.5, MemoryGB: 8, QueueCap: 16, BatchSize: 4, BatchHoldMS: 2,
			TimeScale: 0.001, StatsWindow: 64, TraceCapacity: 8, ShardPlacement: "affinity", SLOs: []string{"p99<250ms"}},
		{Workers: 2, Shards: 2, DeadlineSec: 0.5, TimeScale: 0.001, ShardPlacement: "bogus"},
		{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, SLOs: []string{"garbage"}},
		{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, TraceCapacity: -5},
		{Workers: 1, DeadlineSec: 0.5, MemoryGB: 1e306, TimeScale: 0.001},
		{Workers: 1, DeadlineSec: 1e306, TimeScale: 0.001},
		{Workers: 1, DeadlineSec: nan, TimeScale: 0.001},
		{Workers: 1, DeadlineSec: 0.5, MemoryGB: inf, TimeScale: 0.001},
		{Workers: 1, DeadlineSec: 0.5, BatchSize: 2, BatchHoldMS: nan, TimeScale: 0.001},
		{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e12},
		{Workers: 1, Shards: 2, DeadlineSec: 0.5, TimeScale: 0.001},
		{Workers: 1, DeadlineSec: 0.5, MemoryGB: 8, TimeScale: 0.001}, // algorithm1 under memory: serial
		{Workers: 1, DeadlineSec: 0.5, TimeScale: 5e-324},             // a clock that leaves the float range
	} {
		f.Add(c.Workers, c.DeadlineSec, c.MemoryGB, c.QueueCap, c.BatchSize, c.BatchHoldMS, c.TimeScale,
			c.StatsWindow, c.Shards, c.TraceCapacity, c.ShardPlacement, strings.Join(c.SLOs, ""), 0, uint64(0))
	}
	trace := ServeTrace{ArrivalRateHz: 100, Items: 1, Seed: 1}
	item := testSys.TestItem(0)
	f.Fuzz(func(t *testing.T, workers int, deadlineSec, memoryGB float64, queueCap, batchSize int,
		batchHoldMS, timeScale float64, statsWindow, shards, traceCapacity int, placement, slo string,
		policy int, seed uint64) {
		n := len(builtinPolicies)
		cfg := ServeConfig{
			Workers: min(workers, 8), Policy: builtinPolicies[(policy%n+n)%n].WithSeed(seed),
			DeadlineSec: deadlineSec, MemoryGB: memoryGB,
			QueueCap: min(queueCap, 1024), BatchSize: batchSize, BatchHoldMS: batchHoldMS,
			TimeScale: timeScale, StatsWindow: min(statsWindow, 1024), Shards: min(shards, 4),
			TraceCapacity: min(traceCapacity, 1024), ShardPlacement: placement,
		}
		if slo != "" {
			cfg.SLOs = []string{slo}
		}
		srv, nerr := testSys.NewServer(testAgent, cfg)
		_, serr := testSys.SimulateServe(testAgent, cfg, trace)
		if nerr != nil {
			if serr == nil || serr.Error() != nerr.Error() {
				t.Fatalf("SimulateServe: %v; NewServer: %v; want one error from both for %+v", serr, nerr, cfg)
			}
			return
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if serr != nil {
			t.Fatalf("NewServer accepted %+v, SimulateServe refused it: %v", cfg, serr)
		}
		fast := cfg
		fast.TimeScale, fast.BatchHoldMS = 1e-6, min(cfg.BatchHoldMS, 1000)
		if cfg.TimeScale > 0 && cfg.TimeScale < fast.TimeScale {
			fast.TimeScale = cfg.TimeScale // fast already: serve at the accepted scale
		}
		srv, err := testSys.NewServer(testAgent, fast)
		if err != nil {
			t.Fatalf("NewServer accepted %+v but refused it at a fast clock: %v", cfg, err)
		}
		defer srv.Close()
		tk, err := srv.SubmitWait(bg, item)
		if err != nil {
			t.Fatalf("SubmitWait: %v", err)
		}
		got := mustWait(t, tk)
		b := Budget{DeadlineSec: cfg.DeadlineSec, MemoryGB: cfg.MemoryGB / float64(max(cfg.Shards, 1))}
		want, err := testSys.LabelWith(bg, cfg.Policy, testAgent, item, b)
		if err != nil {
			t.Fatalf("LabelWith under one shard's budget %+v: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v serves\n%+v\nLabelWith under %+v gives\n%+v", cfg, got, b, want)
		}
		v := reflect.ValueOf(srv.Stats())
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Float64 && !finite(f.Float()) {
				t.Fatalf("%+v served at time scale %v: %s = %v", cfg, fast.TimeScale, v.Type().Field(i).Name, f.Float())
			}
		}
	})
}

// FuzzServeTrace: SimulateServe and Server.Replay accept or refuse
// every arrival trace together, with one error text, and a refused
// Replay admits no item. Every float of an accepted trace's simulated
// stats is finite. An accepted trace is not served, since a fuzzed rate
// may pace arrivals hours apart.
func FuzzServeTrace(f *testing.F) {
	for _, c := range []struct {
		trace ServeTrace
		scale float64
	}{
		{ServeTrace{ArrivalRateHz: 1000, Items: 40, Seed: 5}, 0.001},
		{ServeTrace{ArrivalRateHz: 1e-320, Items: 3}, 0.001},
		{ServeTrace{ArrivalRateHz: 1e-300, Items: 3}, 0.001},
		{ServeTrace{ArrivalRateHz: 4e-302, Items: 1000, Seed: 2}, 1e-300}, // a horizon near the float range
		{ServeTrace{ArrivalRateHz: math.NaN(), Items: 5}, 1},
		{ServeTrace{ArrivalRateHz: 100, Items: -1}, 1},
		{ServeTrace{ArrivalRateHz: 100, Items: 5}, -1},
	} {
		f.Add(c.trace.ArrivalRateHz, c.trace.Items, c.trace.Seed, c.scale)
	}
	f.Fuzz(func(t *testing.T, rateHz float64, items int, seed uint64, timeScale float64) {
		cfg := serveCfg(1)
		cfg.TimeScale = timeScale
		trace := ServeTrace{ArrivalRateHz: rateHz, Items: min(items, 1000), Seed: seed}
		st, serr := testSys.SimulateServe(testAgent, cfg, trace)
		if serr == nil {
			v := reflect.ValueOf(st)
			for i := range v.NumField() {
				if f := v.Field(i); f.Kind() == reflect.Float64 && !finite(f.Float()) {
					t.Fatalf("SimulateServe(%+v at time scale %v): %s = %v", trace, timeScale, v.Type().Field(i).Name, f.Float())
				}
			}
			return
		}
		st, err := replayTrace(bg, testAgent, cfg, trace, nil)
		if err == nil || err.Error() != serr.Error() {
			t.Fatalf("Replay: %v; SimulateServe: %v; want one error from both for %+v at time scale %v", err, serr, trace, timeScale)
		}
		if n := st.Completed + st.Rejected + st.Failed; n != 0 {
			t.Fatalf("a refused replay of %+v admitted %d items", trace, n)
		}
	})
}

func TestServerQueueFullSurfacesBackpressure(t *testing.T) {
	cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, QueueCap: 1, TimeScale: 0.05}
	srv, err := testSys.NewServer(testAgent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Flood a one-worker, one-slot server: with each item occupying the
	// worker for ~25 ms of wall clock, a burst of submits must hit the
	// bounded queue.
	var sawFull bool
	for i := 0; i < 10; i++ {
		_, err := srv.Submit(testSys.TestItem(3)) // image 3 runs a non-empty schedule (see above)
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("bounded queue never rejected under a flood")
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// shrinkingExecutor is an item's executor whose models claim their
// footprint when they launch and less when they finish: 1 MB less, or
// nothing at all with keepAll, so every release gives back less than its
// reservation claimed. Only the worker running the item calls Model: at
// launch, then at commit.
type shrinkingExecutor struct {
	oracle.Executor
	keepAll  bool
	launched map[int]bool
}

func (e *shrinkingExecutor) Model(m int) *zoo.Model {
	mod := e.Executor.Model(m)
	if !e.launched[m] {
		e.launched[m] = true
		return mod
	}
	freed := *mod
	freed.MemMB -= e.kept(mod)
	return &freed
}

// kept returns the megabytes a release of mod's claim keeps back.
func (e *shrinkingExecutor) kept(mod *zoo.Model) float64 {
	if e.keepAll {
		return mod.MemMB
	}
	return 1
}

// TestCloseSurfacesHeldMemory: a shard that drains with memory still
// claimed fails the server's Close through the router, naming the
// megabytes, and the server is closed all the same. A release that gives
// back nothing leaves the item's declined asks with no release to wait
// for, so the item must still finish for Close to report.
func TestCloseSurfacesHeldMemory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		keepAll bool
	}{
		{"release 1 MB less", false},
		{"release nothing", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := testSys.NewServer(testAgent, ServeConfig{Workers: 2, Shards: 2, DeadlineSec: 0.5, MemoryGB: 8, TimeScale: 0.001})
			if err != nil {
				t.Fatal(err)
			}
			leaky := &shrinkingExecutor{Executor: testSys.GenerateItems(1, 5)[0].ext.Executor(), keepAll: tc.keepAll, launched: map[int]bool{}}
			tk, err := srv.router.SubmitWait(bg, shard.Item{Tag: "leak", Resolve: func(int) (oracle.Executor, error) { return leaky, nil }})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan []int, 1)
			go func() { done <- tk.Wait().Executed }()
			var executed []int
			select {
			case executed = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the leaking item never finished")
			}
			held := 0.0
			for _, m := range executed {
				held += leaky.kept(leaky.Executor.Model(m))
			}
			if held == 0 {
				t.Fatal("the item ran no model, so it claimed nothing")
			}
			want := fmt.Sprintf("%v MB of memory still held", held)
			if err := srv.Close(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Close = %v, want an error naming the %v MB still held", err, held)
			}
			if err := srv.Close(); err != ErrServerClosed {
				t.Fatalf("second Close = %v, want ErrServerClosed", err)
			}
		})
	}
}

// TestCloseReportsUnendedTraces: a traced server whose tracer handed out
// an item trace that was never ended fails Close with an error naming
// the count, and the server is closed all the same.
func TestCloseReportsUnendedTraces(t *testing.T) {
	srv, err := testSys.NewServer(testAgent, ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := srv.SubmitWait(bg, testSys.TestItem(0))
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, tk)
	srv.tracer.Begin(0, "open")
	const want = "closed with 1 item traces never ended"
	if err := srv.Close(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Close = %v, want an error containing %q", err, want)
	}
	if err := srv.Close(); err != ErrServerClosed {
		t.Fatalf("second Close = %v, want ErrServerClosed", err)
	}
}

// leastAllocsPerItem measures heap allocations per served item on each
// server: runtime.MemStats counts the whole process, so the servers are
// warmed first and then measured in interleaved rounds over the same
// items, keeping each server's minimum — a stray allocation (a GC cycle,
// a background goroutine) can only add to a round, never subtract.
func leastAllocsPerItem(t *testing.T, srvs ...*Server) []float64 {
	t.Helper()
	return leastAllocsServing(t, func(i int) Item { return testSys.TestItem(i % testSys.NumTestImages()) }, srvs...)
}

// leastAllocsServing is leastAllocsPerItem over the items item returns:
// item(i) is the i-th item of a warm-up or of a measured round.
func leastAllocsServing(t *testing.T, item func(i int) Item, srvs ...*Server) []float64 {
	t.Helper()
	const rounds, perRound = 5, 100
	serve := func(srv *Server, n int) {
		for i := 0; i < n; i++ {
			tk, err := srv.SubmitWait(bg, item(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Wait(bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	least := make([]float64, len(srvs))
	for i, srv := range srvs {
		serve(srv, testSys.NumTestImages()) // warm: rings, histograms and buffers reach their size
		least[i] = math.Inf(1)
	}
	for r := 0; r < rounds; r++ {
		for i, srv := range srvs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			serve(srv, perRound)
			runtime.ReadMemStats(&after)
			least[i] = min(least[i], float64(after.Mallocs-before.Mallocs)/perRound)
		}
	}
	return least
}

// TestServeAllocationBudget pins what serving an oracle-backed item
// costs in steady state: the worker keeps its labeling state, its
// executed-model and output scratch and its execution wake-ups from item
// to item, and the wheel holds its waiters by value, so what is left is
// what the caller receives. Batching adds nothing: a batched execution
// reuses the worker's wake-up, the lanes compact their requests in place
// and reuse their sealed batches. Per item, measured at 8.00 (Algorithm
// 1), 8.14 (Algorithm 2) and 8.00 (batched): the serve.Ticket and its
// Done channel, the ServeTicket wrapping it (Submit returns all three to
// the caller), the schedule's Executed and Outputs copies (the
// ItemResult owns them once the worker moves on), and Wait's model-name
// slice, *Result and Labels. The fraction is the items whose schedules
// emit more than 64 distinct labels, whose deduplication outgrows its
// stack buffers. The bound leaves room for runtime noise, not for
// another per-item copy.
func TestServeAllocationBudget(t *testing.T) {
	const bound = 10
	for _, tc := range []struct {
		name string
		cfg  ServeConfig
	}{
		{"algorithm1", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e-6}},
		{"algorithm2", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e-6, Policy: PolicyAlgorithm2, MemoryGB: 8}},
		{"batched", ServeConfig{Workers: 1, DeadlineSec: 0.2, MemoryGB: 1, BatchSize: 8, BatchHoldMS: 600, TimeScale: 1e-6}},
		{"traced", ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e-6, Telemetry: true, TraceCapacity: 16}},
	} {
		srv, err := testSys.NewServer(testAgent, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := leastAllocsPerItem(t, srv)[0]
		srv.Close()
		t.Logf("%s: %.2f allocations per item", tc.name, got)
		if got > bound {
			t.Errorf("%s: serving an item allocates %.2f times, bound %d", tc.name, got, bound)
		}
	}
}

// TestIngestAllocationBudget pins what serving a fresh external item
// through a durable corpus costs, with the shared predictor cache and
// telemetry on: the oracle floor of TestServeAllocationBudget plus what
// the item and its caller keep — the exact-size inference outputs, the
// item's memo, its corpus entry and identity key, the commit's executed
// copy, the resolve closure, and the shared tier's clone and key on a
// real miss. Per item, measured at 25.53, and at 48.34 while inference
// grew and deduplicated its labels on the heap, every trace was a fresh
// record, every shared-cache lookup built a string key, the memo was two
// slices and every eviction and hook cost a channel and a closure. The
// items are generated before the measured rounds. The bound sits between
// the two readings: it leaves room for runtime noise, not for another
// per-call copy.
func TestIngestAllocationBudget(t *testing.T) {
	const bound = 30
	c, err := testSys.OpenCorpus(filepath.Join(t.TempDir(), "corpus.wal"), CorpusOptions{MaxResident: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := testSys.NewServer(testAgent, ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 1e-6,
		PredictorCache: true, Telemetry: true, TraceCapacity: 16, Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	items := testSys.GenerateItems(testSys.NumTestImages()+5*100, 46)
	next := 0
	got := leastAllocsServing(t, func(int) Item { next++; return items[next-1] }, srv)[0]
	t.Logf("%.2f allocations per ingested item", got)
	if got > bound {
		t.Errorf("serving an ingested item allocates %.2f times, bound %d", got, bound)
	}
}
