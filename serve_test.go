package ams

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// serveCfg is the shared fast-clock server configuration: a millisecond
// of model time sleeps a microsecond.
func serveCfg(workers int) ServeConfig {
	return ServeConfig{Workers: workers, DeadlineSec: 0.5, TimeScale: 0.001}
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
// registry policy over the whole test split and a few external items.
// The reference is one LabelBatchWith worker, which like the server's
// worker 0 carries one policy instance across the items in order.
func TestServerLabelsLikeLabel(t *testing.T) {
	items := make([]Item, testSys.NumTestImages())
	for i := range items {
		items[i] = testSys.TestItem(i)
	}
	items = append(items, testSys.GenerateItems(4, 9)...)
	for _, pol := range registryPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := serveCfg(1)
			cfg.Policy, cfg.MemoryGB = pol, 8
			b := Budget{DeadlineSec: cfg.DeadlineSec}
			if pol.parallel {
				b.MemoryGB = cfg.MemoryGB
			}
			want, _, err := testSys.LabelBatchWith(bg, pol, testAgent, items, b, 1)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := testSys.NewServer(testAgent, cfg)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			for i, item := range items {
				tk, err := srv.SubmitWait(bg, item)
				if err != nil {
					t.Fatalf("SubmitWait: %v", err)
				}
				if got := mustWait(t, tk); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("item %d: server result diverges from the library's:\n%+v\nvs\n%+v", i, got, want[i])
				}
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
		real, err := testSys.Serve(bg, testAgent, cfg, trace, nil)
		if err != nil {
			t.Fatalf("Serve: %v", err)
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
	for _, tc := range []struct {
		name string
		cfg  ServeConfig
	}{
		{"zero workers", ServeConfig{Workers: 0, DeadlineSec: 0.5, TimeScale: 0.001}},
		{"no deadline", ServeConfig{Workers: 2, DeadlineSec: 0, TimeScale: 0.001}},
		{"exhausted memory budget", ServeConfig{Workers: 2, DeadlineSec: 0.5, MemoryGB: 0.1, TimeScale: 0.001}},
		{"negative queue", ServeConfig{Workers: 2, DeadlineSec: 0.5, QueueCap: -1, TimeScale: 0.001}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := testSys.NewServer(testAgent, tc.cfg); err == nil {
				t.Fatalf("NewServer accepted %+v", tc.cfg)
			}
			if _, err := testSys.Serve(bg, testAgent, tc.cfg, trace, nil); err == nil {
				t.Fatalf("Serve accepted %+v", tc.cfg)
			}
		})
	}
	if _, err := testSys.NewServer(nil, serveCfg(1)); err == nil {
		t.Fatal("nil agent accepted")
	}
	if _, err := testSys.Serve(bg, nil, serveCfg(1), trace, nil); err == nil {
		t.Fatal("nil agent accepted by Serve")
	}
	if _, err := testSys.SimulateServe(nil, serveCfg(1), trace); err == nil {
		t.Fatal("nil agent accepted by SimulateServe")
	}
	if _, err := testSys.SimulateServe(testAgent, serveCfg(0), trace); err == nil {
		t.Fatal("zero workers accepted by SimulateServe")
	}
	if _, err := testSys.SimulateServe(testAgent, serveCfg(1), ServeTrace{}); err == nil {
		t.Fatal("empty trace accepted by SimulateServe")
	}
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
