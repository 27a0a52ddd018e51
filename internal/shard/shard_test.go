package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ams/internal/labels"
	"ams/internal/obs"
	"ams/internal/oracle"
	"ams/internal/serve"
	"ams/internal/service"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 40, 77)
	store = oracle.Build(z, ds.Scenes)
)

// fixedPolicy executes a fixed model list in order, skipping models the
// constraints exclude, so every item gets the same deterministic
// schedule regardless of which shard runs it.
type fixedPolicy struct{ models []int }

func (p *fixedPolicy) Name() string { return "fixed" }
func (p *fixedPolicy) Reset(int)    {}
func (p *fixedPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	for _, m := range p.models {
		if t.Candidate(m) && c.Allows(z.Models[m]) {
			return m
		}
	}
	return -1
}
func (p *fixedPolicy) Observe(int, zoo.Output) {}

func fixedFactory(models ...int) service.PolicyFactory {
	return func(worker int) sim.Policy { return &fixedPolicy{models: models} }
}

// newShardServers builds n identical shard servers.
func newShardServers(t *testing.T, n, workers int) []*serve.Server {
	t.Helper()
	return shardServers(t, n, workers, 0, nil)
}

// shardServers is newShardServers with each shard's queue bound (0: the
// server's default) and every shard publishing its item traces into one
// tracer, as the root server wires them.
func shardServers(t *testing.T, n, workers, queueCap int, tracer *obs.Tracer) []*serve.Server {
	t.Helper()
	servers := make([]*serve.Server, n)
	for s := range servers {
		sv, err := serve.New(store, fixedFactory(0, 1), serve.Config{
			Config:    service.Config{Workers: workers, DeadlineSec: 0.5},
			QueueCap:  queueCap,
			TimeScale: 0.001,
			Tracer:    tracer,
		})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		servers[s] = sv
	}
	return servers
}

func workerCounts(n, workers int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = workers
	}
	return w
}

// keyOn finds a key at or after start whose hash home is shard s.
func keyOn(s, shards int, start uint64) uint64 {
	for k := start; ; k++ {
		if ShardFor(k, shards) == s {
			return k
		}
	}
}

func TestShardForStable(t *testing.T) {
	counts := make([]int, 4)
	for k := uint64(0); k < 4000; k++ {
		s := ShardFor(k, 4)
		if s2 := ShardFor(k, 4); s2 != s {
			t.Fatalf("ShardFor(%d) unstable: %d then %d", k, s, s2)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 500 {
			t.Errorf("shard %d got %d of 4000 keys; hash is badly skewed", s, c)
		}
	}
}

func TestPlacementByName(t *testing.T) {
	for name, want := range map[string]Placement{
		"": Hash, "hash": Hash, "least": LeastLoaded, "affinity": Affinity,
	} {
		got, err := PlacementByName(name)
		if err != nil || got != want {
			t.Errorf("PlacementByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := PlacementByName("round-robin"); err == nil {
		t.Error("PlacementByName accepted an unknown policy")
	}
	for _, p := range []Placement{Hash, LeastLoaded, Affinity} {
		back, err := PlacementByName(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	servers := newShardServers(t, 2, 1)
	defer servers[0].Close()
	defer servers[1].Close()
	for _, tc := range []struct {
		name string
		srv  []*serve.Server
		cfg  Config
		want string
	}{
		{"no servers", nil, Config{}, "no servers"},
		{"worker count mismatch", servers, Config{Workers: []int{1}}, "worker counts"},
		{"affinity without models", servers, Config{Workers: []int{1, 1}, Placement: Affinity}, "model count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.srv, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestHashPlacementMatchesShardFor submits keyed items through two
// independently built routers and checks every item executes on
// ShardFor(key, n) in both — hash placement is stable across router
// rebuilds (and, by the same function, across restarts).
func TestHashPlacementMatchesShardFor(t *testing.T) {
	const n = 4
	for rebuild := 0; rebuild < 2; rebuild++ {
		r, err := New(newShardServers(t, n, 2), Config{Workers: workerCounts(n, 2)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tickets := make([]*serve.Ticket, 80)
		for i := range tickets {
			tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(i), Index: i % ds.Len()})
			if err != nil {
				t.Fatalf("SubmitWait: %v", err)
			}
			tickets[i] = tk
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i, tk := range tickets {
			err := tk.Err()
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
			if want := ShardFor(uint64(i), n); tk.Shard != want {
				t.Errorf("rebuild %d: key %d ran on shard %d, want %d", rebuild, i, tk.Shard, want)
			}
			if tk.Home != tk.Shard {
				t.Errorf("key %d reported stolen with stealing disabled", i)
			}
		}
	}
}

// TestAffinityGroupsHotTraffic drives two hint families through an
// affinity router and checks each family lands wholly on one shard —
// the first item of a family places by hash fallback, its heat credit
// then captures the rest.
func TestAffinityGroupsHotTraffic(t *testing.T) {
	const n = 2
	r, err := New(shardServers(t, n, 2, 64, nil), Config{
		Placement: Affinity,
		Models:    len(z.Models),
		Workers:   workerCounts(n, 2),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	keyA, keyB := keyOn(0, n, 0), keyOn(1, n, 0)
	var ticketsA, ticketsB []*serve.Ticket
	for i := 0; i < 20; i++ {
		tkA, err := r.SubmitWait(context.Background(), Item{Key: keyA, Hint: []int{3}, Index: i % ds.Len()})
		if err != nil {
			t.Fatalf("SubmitWait A: %v", err)
		}
		tkB, err := r.SubmitWait(context.Background(), Item{Key: keyB, Hint: []int{7}, Index: i % ds.Len()})
		if err != nil {
			t.Fatalf("SubmitWait B: %v", err)
		}
		ticketsA, ticketsB = append(ticketsA, tkA), append(ticketsB, tkB)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range ticketsA {
		if err := tk.Err(); err != nil || tk.Shard != 0 {
			t.Errorf("family A item %d: shard %d, err %v; want shard 0", i, tk.Shard, err)
		}
	}
	for i, tk := range ticketsB {
		if err := tk.Err(); err != nil || tk.Shard != 1 {
			t.Errorf("family B item %d: shard %d, err %v; want shard 1", i, tk.Shard, err)
		}
	}
}

// TestStealDrainsIdleShard hashes every item to shard 0 and checks the
// otherwise-idle shard 1 steals a share of them — and that every stolen
// item's trace says so. Provenance rides the ticket, so it needs no tag
// (the even items carry none) and survives in-flight items sharing one
// (the odd items all do). Every third item is external-style: its
// Resolve runs exactly once, on the shard that executes it, stolen or
// not.
func TestStealDrainsIdleShard(t *testing.T) {
	const n = 2
	tracer := obs.NewTracer(64)
	r, err := New(shardServers(t, n, 2, 8, tracer), Config{
		Steal:   true,
		Workers: workerCounts(n, 2),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := keyOn(0, n, 0)
	tickets := make([]*serve.Ticket, 60)
	var mu sync.Mutex
	resolvedOn := make([][]int, len(tickets)) // each Resolve call's shard argument
	for i := range tickets {
		it := Item{Key: key, Index: i % ds.Len(), Tag: []string{"", "dup"}[i%2]}
		if i%3 == 0 {
			it.Resolve = func(shard int) (oracle.Executor, error) {
				mu.Lock()
				defer mu.Unlock()
				resolvedOn[i] = append(resolvedOn[i], shard)
				return oracle.NewExternalItem(z, ds.Scenes[i%ds.Len()]).Executor(), nil
			}
		}
		tk, err := r.SubmitWait(context.Background(), it)
		if err != nil {
			t.Fatalf("SubmitWait: %v", err)
		}
		tickets[i] = tk
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stolen := 0
	for i, tk := range tickets {
		err := tk.Err()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if tk.Home != 0 {
			t.Errorf("item %d: home %d shard %d, want home 0", i, tk.Home, tk.Shard)
		}
		if tk.Home != tk.Shard {
			stolen++
		}
		if i%3 == 0 && (len(resolvedOn[i]) != 1 || resolvedOn[i][0] != tk.Shard) {
			t.Errorf("item %d ran on shard %d (home %d) but resolved on %v", i, tk.Shard, tk.Home, resolvedOn[i])
		}
	}
	st := r.Stats()
	if stolen == 0 || st.Steals == 0 {
		t.Fatalf("idle shard stole nothing (results %d, stats %d) from a fully skewed stream", stolen, st.Steals)
	}
	if int64(stolen) != st.Steals {
		t.Errorf("stolen results %d != stats steals %d", stolen, st.Steals)
	}
	if st.PerShard[1].Steals != st.Steals || st.PerShard[0].StolenFrom != st.Steals {
		t.Errorf("per-shard steal accounting: %+v", st.PerShard)
	}
	traces := tracer.Recent(len(tickets))
	if len(traces) != len(tickets) {
		t.Fatalf("%d traces for %d items", len(traces), len(tickets))
	}
	tracedSteals := map[string]int{}
	for _, tr := range traces {
		links := tr.Spans[0].Links
		if tr.Home != 0 || tr.Stolen != (tr.Shard != 0) {
			t.Errorf("trace %d: home %d shard %d stolen=%v links=%v", tr.Seq, tr.Home, tr.Shard, tr.Stolen, links)
		}
		if tr.Stolen {
			tracedSteals[tr.Tag]++
			if len(links) != 1 || links[0] != (obs.SpanLink{Kind: "steal", From: 0, To: 1}) {
				t.Errorf("trace %d: stolen item's root span links %v, want steal 0 → 1", tr.Seq, links)
			}
		} else if len(links) != 0 {
			t.Errorf("trace %d: home-run item carries links %v", tr.Seq, links)
		}
	}
	var wantSteals [2]int
	for i, tk := range tickets {
		if tk.Home != tk.Shard {
			wantSteals[i%2]++
		}
	}
	if tracedSteals[""] != wantSteals[0] || tracedSteals["dup"] != wantSteals[1] {
		t.Errorf("traces record steals %v, tickets %v (untagged, shared tag)", tracedSteals, wantSteals)
	}
}

// TestOneShardParity runs the same items through a 1-shard router and a
// bare server with the same deterministic policy: every item-level field
// that is not timing must match.
func TestOneShardParity(t *testing.T) {
	run := func(viaRouter bool) map[string]serve.ItemResult {
		sv := newShardServers(t, 1, 2)[0]
		out := make(map[string]serve.ItemResult)
		if viaRouter {
			r, err := New([]*serve.Server{sv}, Config{Workers: []int{2}})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var tickets []*serve.Ticket
			for i := 0; i < 12; i++ {
				tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(i), Index: i, Tag: fmt.Sprintf("scene-%d", i)})
				if err != nil {
					t.Fatalf("SubmitWait: %v", err)
				}
				tickets = append(tickets, tk)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for _, tk := range tickets {
				res, err := tk.Wait(), tk.Err()
				if err != nil {
					t.Fatalf("Result: %v", err)
				}
				out[res.Tag] = res
			}
			return out
		}
		var tickets []*serve.Ticket
		for i := 0; i < 12; i++ {
			tk, err := sv.SubmitWait(context.Background(), i, fmt.Sprintf("scene-%d", i))
			if err != nil {
				t.Fatalf("SubmitWait: %v", err)
			}
			tickets = append(tickets, tk)
		}
		if err := sv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, tk := range tickets {
			res := tk.Wait()
			out[res.Tag] = res
		}
		return out
	}

	routed, direct := run(true), run(false)
	if len(routed) != len(direct) {
		t.Fatalf("routed %d items, direct %d", len(routed), len(direct))
	}
	for tag, d := range direct {
		r, ok := routed[tag]
		if !ok {
			t.Fatalf("item %q missing from routed run", tag)
		}
		if r.Image != d.Image || len(r.Executed) != len(d.Executed) ||
			r.ScheduleMS != d.ScheduleMS || r.Recall != d.Recall || r.HasRecall != d.HasRecall {
			t.Errorf("item %q diverged: routed %+v, direct %+v", tag, r, d)
		}
		for i := range d.Executed {
			if r.Executed[i] != d.Executed[i] {
				t.Errorf("item %q executed %v, direct %v", tag, r.Executed, d.Executed)
				break
			}
		}
	}
}

// TestShardStress hammers an affinity+steal router from concurrent
// submitters; run under -race in CI.
func TestShardStress(t *testing.T) {
	const n, workers, goroutines, each = 4, 2, 8, 25
	r, err := New(shardServers(t, n, workers, 16, nil), Config{
		Placement: Affinity,
		Steal:     true,
		Models:    len(z.Models),
		Workers:   workerCounts(n, workers),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tk, err := r.SubmitWait(context.Background(), Item{
					Key:   uint64(g*each + i),
					Hint:  []int{(g + i) % len(z.Models)},
					Index: (g*each + i) % ds.Len(),
				})
				if err != nil {
					errs <- err
					return
				}
				if err := tk.Err(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("submitter: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := r.Stats()
	if st.Total.Completed != goroutines*each {
		t.Fatalf("completed %d of %d", st.Total.Completed, goroutines*each)
	}
	if st.Total.Failed != 0 {
		t.Fatalf("%d dispatch failures", st.Total.Failed)
	}
	var assigned int64
	for _, ps := range st.PerShard {
		assigned += ps.Assigned
	}
	if assigned != goroutines*each {
		t.Errorf("assigned %d of %d", assigned, goroutines*each)
	}
}

// TestDispatchFailuresResolveOnce covers the two ways a placed item
// never runs. Its Resolve fails on the worker that took it: the ticket
// resolves exactly once with that error (a second resolution would panic
// on the closed Done), the server counts one failure, and the failure
// holds no slot. Or its shard's server has closed: SubmitWait refuses
// the placement with serve.ErrClosed, handing out no ticket and counting
// no failure. Either way the sibling still serves; the package's
// TestMain checks no goroutine is left behind.
func TestDispatchFailuresResolveOnce(t *testing.T) {
	const n = 2
	boom := errors.New("resolve failed")
	var resolves atomic.Int64
	for _, tc := range []struct {
		name       string
		item       Item
		closeShard bool  // close shard 0's server before submitting
		wantSubmit error // SubmitWait's error
		wantTicket error // the ticket's, when SubmitWait handed one out
		failures   int64
	}{
		{"resolve error", Item{Key: keyOn(0, n, 0), Resolve: func(int) (oracle.Executor, error) { resolves.Add(1); return nil, boom }}, false, nil, boom, 1},
		{"shard closed before admission", Item{Key: keyOn(0, n, 0), Index: 1}, true, serve.ErrClosed, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resolves.Store(0)
			servers := newShardServers(t, n, 1)
			r, err := New(servers, Config{Steal: true, Workers: workerCounts(n, 1)})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if tc.closeShard {
				if err := servers[0].Close(); err != nil {
					t.Fatalf("closing shard 0: %v", err)
				}
			}
			bad, err := r.SubmitWait(context.Background(), tc.item)
			if !errors.Is(err, tc.wantSubmit) || (err == nil) != (bad != nil) {
				t.Fatalf("SubmitWait = %v, %v; want error %v", bad, err, tc.wantSubmit)
			}
			if bad != nil {
				if err := bad.Err(); !errors.Is(err, tc.wantTicket) {
					t.Fatalf("failed ticket resolved with %v, want %v", err, tc.wantTicket)
				}
			}
			// The sibling still serves.
			good, err := r.SubmitWait(context.Background(), Item{Key: keyOn(1, n, 0), Index: 2})
			if err != nil {
				t.Fatalf("SubmitWait after the failure: %v", err)
			}
			if err := good.Err(); err != nil {
				t.Fatalf("sibling item: %v", err)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st := r.Stats()
			if st.Total.Failed != tc.failures || st.Total.Completed != 1 || resolves.Load() != tc.failures {
				t.Errorf("failures %d, completed %d, resolves %d; want %d, 1 and %d",
					st.Total.Failed, st.Total.Completed, resolves.Load(), tc.failures, tc.failures)
			}
			for s, sv := range servers {
				if load := sv.Load(); load != 0 {
					t.Errorf("shard %d still holds %d items", s, load)
				}
			}
		})
	}
}

// TestRouterStartsNoGoroutine: the router owns no queue, so building one
// over running servers adds no goroutine; its servers' idle workers do
// all the stealing.
func TestRouterStartsNoGoroutine(t *testing.T) {
	const n = 3
	servers := shardServers(t, n, 2, 0, nil)
	before := runtime.NumGoroutine()
	r, err := New(servers, Config{Placement: Affinity, Steal: true, Models: len(z.Models), Workers: workerCounts(n, 2)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Goroutines left by earlier tests may still be exiting, so only a
	// rise counts.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("New started %d goroutines, want none", after-before)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseRacesSubmitters closes the router while submitters are still
// feeding it: every ticket a SubmitWait handed out — pending, being
// dispatched or executing when Close ran — resolves exactly once, and
// the results and errors the callers saw are the completions and
// failures the router counted.
func TestCloseRacesSubmitters(t *testing.T) {
	const n, goroutines, each = 2, 4, 40
	r, err := New(shardServers(t, n, 1, 4, nil), Config{Steal: true, Workers: workerCounts(n, 1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tickets := make(chan *serve.Ticket, goroutines*each)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(g*each + i), Index: i % ds.Len()})
				if err != nil {
					if err != serve.ErrClosed {
						t.Errorf("SubmitWait: %v", err)
					}
					return
				}
				tickets <- tk
			}
		}(g)
	}
	for len(tickets) < goroutines { // let some items get in before the close
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(tickets)
	var completed, failed int64
	for tk := range tickets {
		if err := tk.Err(); err != nil {
			failed++
		} else {
			completed++
		}
	}
	if st := r.Stats(); st.Total.Completed != completed || st.Total.Failed != failed {
		t.Errorf("callers saw %d results and %d errors; router counted %d and %d",
			completed, failed, st.Total.Completed, st.Total.Failed)
	}
}

// TestSubmitWaitCountsNoReject pushes more closed-loop submissions
// through a router than its shards' queues hold: waiting for a slot is
// backpressure, so every item completes and nothing is counted as shed.
func TestSubmitWaitCountsNoReject(t *testing.T) {
	const n, items = 2, 60
	r, err := New(shardServers(t, n, 1, 2, nil), Config{Workers: workerCounts(n, 1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tickets := make([]*serve.Ticket, items)
	for i := range tickets {
		tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(i), Index: i % ds.Len()})
		if err != nil {
			t.Fatalf("SubmitWait: %v", err)
		}
		tickets[i] = tk
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if st := r.Stats(); st.Total.Completed != items || st.Total.Rejected != 0 {
		t.Errorf("completed %d of %d with %d rejects; SubmitWait sheds nothing", st.Total.Completed, items, st.Total.Rejected)
	}
}

// TestWaitSecCoversDispatchResolve blocks an item's Resolve, on the
// worker that took it, for a known wall interval and checks the interval
// shows up in the item's queue wait: the worker stamps the dequeue after
// resolution, and the ticket's arrival at the caller's submit.
func TestWaitSecCoversDispatchResolve(t *testing.T) {
	const block = 30 * time.Millisecond
	const scale = 0.001 // newShardServers' TimeScale
	r, err := New(newShardServers(t, 2, 1), Config{Workers: workerCounts(2, 1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tk, err := r.SubmitWait(context.Background(), Item{Key: 1, Resolve: func(int) (oracle.Executor, error) {
		time.Sleep(block)
		return oracle.NewExternalItem(z, ds.Scenes[3]).Executor(), nil
	}})
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	res, err := tk.Wait(), tk.Err()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := res.Record(res.Arrival, scale) // ArrivalSec 0: StartSec is the wait, FinishSec the latency
	if want := block.Seconds() / scale; rec.StartSec < want || rec.FinishSec < rec.StartSec {
		t.Errorf("wait %.1f s, latency %.1f s: want the %.0f simulated seconds Resolve blocked inside both",
			rec.StartSec, rec.FinishSec, want)
	}
}
