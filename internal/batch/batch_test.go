package batch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ams/internal/obs"
	"ams/internal/vtime"
	"ams/internal/zoo"
)

// testModels is a two-model registry with a controlled cost split:
// TimeMS 100 = 70 launch + 30 marginal, footprint 1000 MB.
func testModels() []*zoo.Model {
	return []*zoo.Model{
		{ID: 0, TimeMS: 100, MemMB: 1000, BatchLaunchMS: 70, BatchMarginalMS: 30},
		{ID: 1, TimeMS: 50, MemMB: 500, BatchLaunchMS: 35, BatchMarginalMS: 15},
	}
}

// recMem records grant traffic. Grants run at once, at the caller's now,
// unless held is set; then they wait, in order, until the test serves
// them with grantNext — the accountant's line with the releases in the
// test's hands.
type recMem struct {
	mu      sync.Mutex
	events  []float64 // +mb on grant, -mb on release
	held    bool
	pending []heldGrant
}

// heldGrant is one grant waiting in recMem's line.
type heldGrant struct {
	queued time.Time
	fn     func(at time.Time)
}

func (r *recMem) Grant(mb float64, fn func(at time.Time)) {
	granted := func(at time.Time) {
		r.mu.Lock()
		r.events = append(r.events, mb)
		r.mu.Unlock()
		fn(at)
	}
	now := time.Now()
	r.mu.Lock()
	if r.held {
		r.pending = append(r.pending, heldGrant{queued: now, fn: granted})
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	granted(now)
}

func (r *recMem) Release(mb float64, _ time.Time) {
	r.mu.Lock()
	r.events = append(r.events, -mb)
	r.mu.Unlock()
}

// grantNext serves the oldest held grant on the caller, as the
// accountant serves a release of memory freed at instant at: from the
// later of at and the instant the grant queued.
func (r *recMem) grantNext(t *testing.T, at time.Time) {
	t.Helper()
	r.mu.Lock()
	if len(r.pending) == 0 {
		r.mu.Unlock()
		t.Fatal("no grant is waiting")
	}
	g := r.pending[0]
	r.pending = r.pending[1:]
	r.mu.Unlock()
	if g.queued.After(at) {
		at = g.queued
	}
	g.fn(at)
}

// waiting reports how many held grants wait to be served.
func (r *recMem) waiting() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

func (r *recMem) trace() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.events...)
}

func newBatcher(t *testing.T, mem Memory, cfg Config) (*Batcher, *vtime.Wheel) {
	t.Helper()
	w := vtime.NewWheel()
	t.Cleanup(w.Stop)
	return New(testModels(), mem, w, cfg), w
}

// closed reports whether done is closed, without blocking.
func closed(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestSizeFlushCoalescesDemand: an owned lane's demand coalesces into
// one footprint claim. Three requests wait in the lane while its one
// grant waits in line; the grant seals all three — MaxBatch caps the
// batch — and the batch claims the footprint once.
func TestSizeFlushCoalescesDemand(t *testing.T) {
	mem := &recMem{held: true}
	b, _ := newBatcher(t, mem, Config{MaxBatch: 3, MaxHoldMS: 1e6, TimeScale: 0.01})
	dones := make([]chan struct{}, 3)
	for i := range dones {
		dones[i] = make(chan struct{})
		b.Enqueue(0, true, dones[i], nil)
	}
	if n := mem.waiting(); n != 1 {
		t.Fatalf("%d grants asked for one lane, want 1", n)
	}
	mem.grantNext(t, time.Now())
	for _, d := range dones {
		<-d // the grant must seal well before the enormous hold
	}
	st := b.Stats()
	if st.Batches != 1 || st.Requests != 3 || st.GrantFlushes != 1 || st.LargestBatch != 3 {
		t.Fatalf("stats %+v, want one grant-sealed batch of 3", st)
	}
	// Saved GPU time: 3*100 - (70 + 3*30) = 140 = (n-1)*launch.
	if st.SavedGPUMS != 140 {
		t.Fatalf("saved %v GPU-ms, want 140", st.SavedGPUMS)
	}
	// Memory coalescing: three owned requests, ONE claim.
	want := []float64{1000, -1000}
	got := mem.trace()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("grant trace %v, want %v", got, want)
	}
	if st.SavedMemMB != 2000 {
		t.Fatalf("saved %v MB of reservations, want 2000", st.SavedMemMB)
	}
}

// TestOwnedLaneSealsAtGrant: a lane whose requests own their footprint
// holds no timer — not even a zero hold, which would flush a lane with
// no owned request at once — and keeps accepting requests until its
// grant arrives, then seals them all as one batch with flush cause
// "grant".
func TestOwnedLaneSealsAtGrant(t *testing.T) {
	mem := &recMem{held: true}
	b, _ := newBatcher(t, mem, Config{MaxBatch: 8, MaxHoldMS: 0, TimeScale: 0.01})
	first := make(chan struct{})
	b.Enqueue(1, true, first, nil)
	time.Sleep(20 * time.Millisecond)
	if closed(first) || b.Queued(1) != 1 {
		t.Fatalf("owned lane flushed before its grant (queued %d)", b.Queued(1))
	}
	refs := make([]*obs.BatchRef, 4)
	dones := []chan struct{}{first}
	for i := range refs {
		refs[i] = &obs.BatchRef{}
		dones = append(dones, make(chan struct{}))
		b.Enqueue(1, true, dones[i+1], refs[i])
	}
	if n := mem.waiting(); n != 1 || b.Queued(1) != 5 {
		t.Fatalf("%d grants waiting, %d queued; want one grant for 5 requests", n, b.Queued(1))
	}
	mem.grantNext(t, time.Now())
	if b.Queued(1) != 0 {
		t.Fatalf("%d requests left unsealed by the grant", b.Queued(1))
	}
	for _, d := range dones {
		<-d
	}
	for i, ref := range refs {
		if ref.Batch == 0 || ref.Batch != refs[0].Batch || ref.N != 5 || ref.Flush != "grant" {
			t.Fatalf("ref[%d] = %+v, want the shared batch of 5 sealed by grant", i, ref)
		}
	}
	st := b.Stats()
	if st.Batches != 1 || st.GrantFlushes != 1 || st.HoldFlushes != 0 || st.SizeFlushes != 0 {
		t.Fatalf("stats %+v, want one grant-sealed batch", st)
	}
}

// TestGrantLeftoversAskAgain: a grant seals at most MaxBatch requests;
// the rest ask again, at the back of the line, one grant at a time.
func TestGrantLeftoversAskAgain(t *testing.T) {
	mem := &recMem{held: true}
	b, _ := newBatcher(t, mem, Config{MaxBatch: 2, MaxHoldMS: 1e6, TimeScale: 0.01})
	dones := make([]chan struct{}, 5)
	for i := range dones {
		dones[i] = make(chan struct{})
		b.Enqueue(0, true, dones[i], nil)
	}
	for _, left := range []int{3, 1, 0} {
		mem.grantNext(t, time.Now())
		if b.Queued(0) != left {
			t.Fatalf("%d requests unsealed after a grant, want %d", b.Queued(0), left)
		}
		if want := min(left, 1); mem.waiting() != want {
			t.Fatalf("%d grants waiting with %d leftovers, want %d", mem.waiting(), left, want)
		}
	}
	for _, d := range dones {
		<-d
	}
	st := b.Stats()
	if st.Batches != 3 || st.GrantFlushes != 3 || st.LargestBatch != 2 || st.Requests != 5 {
		t.Fatalf("stats %+v, want grant-sealed batches of 2, 2 and 1", st)
	}
	claims, sum := 0, 0.0
	for _, e := range mem.trace() {
		if e > 0 {
			claims++
		}
		sum += e
	}
	if claims != 3 || sum != 0 {
		t.Fatalf("grant trace %v: want three balanced claims", mem.trace())
	}
}

// TestGrantSealsCausalPrefix: a grant seals only the requests enqueued
// by its instant. r1 asks, r2 joins the lane while the grant waits, and
// the grant is served at an instant between the two enqueues: r1 runs
// alone, and the lane asks again for r2 rather than let it ride a batch
// that started before it arrived.
func TestGrantSealsCausalPrefix(t *testing.T) {
	mem := &recMem{held: true}
	b, _ := newBatcher(t, mem, Config{MaxBatch: 8, TimeScale: 0.01})
	refs := []*obs.BatchRef{{}, {}}
	d1, d2 := make(chan struct{}), make(chan struct{})
	b.Enqueue(0, true, d1, refs[0])
	between := time.Now()
	for !time.Now().After(between) { // r2's stamp is strictly later
	}
	b.Enqueue(0, true, d2, refs[1])
	if mem.waiting() != 1 || b.Queued(0) != 2 {
		t.Fatalf("%d grants waiting, %d queued; want one grant for 2 requests", mem.waiting(), b.Queued(0))
	}
	mem.grantNext(t, between)
	if b.Queued(0) != 1 || mem.waiting() != 1 {
		t.Fatalf("%d queued, %d grants waiting after the grant; want r2 left behind and asking again",
			b.Queued(0), mem.waiting())
	}
	<-d1
	if closed(d2) {
		t.Fatal("r2 finished with a batch that started before it was enqueued")
	}
	mem.grantNext(t, time.Now())
	<-d2
	if refs[0].N != 1 || !refs[0].Seal.Equal(between) || refs[1].N != 1 || refs[1].Batch == refs[0].Batch {
		t.Fatalf("refs %+v and %+v, want two batches of one, the first starting at the grant's instant %v",
			*refs[0], *refs[1], between)
	}
	if st := b.Stats(); st.Batches != 2 || st.GrantFlushes != 2 {
		t.Fatalf("stats %+v, want two grant-sealed batches", st)
	}
}

// TestSealedBatchPacesOnTheWheel: Enqueue arms a sealed batch's
// execution on the timer wheel and returns at once; the batch's done
// fires no earlier than its scaled cost after the seal. A pause that
// blocked the enqueuing worker for the cost would serialize every model
// its item launches at one scheduling point.
func TestSealedBatchPacesOnTheWheel(t *testing.T) {
	b, _ := newBatcher(t, nil, Config{MaxBatch: 1, TimeScale: 10}) // model 0's 100 ms cost: 1 s
	done := make(chan struct{})
	var ref obs.BatchRef
	t0 := time.Now()
	b.Enqueue(0, false, done, &ref)
	if d := time.Since(t0); d >= 500*time.Millisecond {
		t.Fatalf("an Enqueue that sealed a 1 s batch returned after %v: the batch paused its caller", d)
	}
	<-done
	if ran := time.Since(ref.Seal); ran < time.Second {
		t.Fatalf("a 1 s batch woke its member %v after the seal", ran)
	}
}

func TestHoldFlushNeverStarvesALoneRequest(t *testing.T) {
	// The second hold scales to 0.1 ns, a zero time.Duration: its timer
	// must still fire off the enqueuing goroutine, which holds the lane.
	for _, hold := range []float64{5, 1e-5} {
		b, _ := newBatcher(t, nil, Config{MaxBatch: 8, MaxHoldMS: hold, TimeScale: 0.01})
		done := make(chan struct{})
		go b.Enqueue(1, false, done, nil)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("hold %v ms: lone request starved waiting for batch-mates", hold)
		}
		st := b.Stats()
		if st.Batches != 1 || st.HoldFlushes != 1 || st.LargestBatch != 1 {
			t.Fatalf("hold %v ms: stats %+v, want one hold-flushed batch of 1", hold, st)
		}
		if st.SavedGPUMS != 0 {
			t.Fatalf("hold %v ms: a batch of one saved %v GPU-ms, want 0", hold, st.SavedGPUMS)
		}
	}
}

// TestBatchOfOneMatchesUnbatchedSequence pins the MaxBatch=1 parity
// contract: one claim of the full footprint, a sleep of exactly the
// nominal TimeMS (BatchCostMS(1) == TimeMS) from the grant on, one
// release.
func TestBatchOfOneMatchesUnbatchedSequence(t *testing.T) {
	mem := &recMem{held: true}
	b, _ := newBatcher(t, mem, Config{MaxBatch: 1, MaxHoldMS: 10, TimeScale: 0.1})
	done := make(chan struct{})
	b.Enqueue(0, true, done, nil)
	start := time.Now()
	mem.grantNext(t, start)
	<-done
	// 100 simulated ms at TimeScale 0.1 = 10 ms real.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("batch of one slept %v, want >= the full nominal 10ms", elapsed)
	}
	got := mem.trace()
	if len(got) != 2 || got[0] != 1000 || got[1] != -1000 {
		t.Fatalf("grant trace %v, want [1000 -1000]", got)
	}
	st := b.Stats()
	if st.Batches != 1 || st.GrantFlushes != 1 {
		t.Fatalf("stats %+v: a MaxBatch=1 owned request must run alone at its grant", st)
	}
}

func TestQueuedTracksUnsealedDemand(t *testing.T) {
	b, _ := newBatcher(t, nil, Config{MaxBatch: 2, MaxHoldMS: 1e6, TimeScale: 0.01})
	if b.Queued(0) != 0 {
		t.Fatalf("fresh lane queued %d", b.Queued(0))
	}
	d1, d2 := make(chan struct{}), make(chan struct{})
	b.Enqueue(0, false, d1, nil)
	if b.Queued(0) != 1 {
		t.Fatalf("queued %d after one enqueue, want 1", b.Queued(0))
	}
	if b.Queued(1) != 0 {
		t.Fatalf("lane 1 queued %d, want 0 (demand is per model)", b.Queued(1))
	}
	b.Enqueue(0, false, d2, nil) // second request seals the batch synchronously
	if b.Queued(0) != 0 {
		t.Fatalf("queued %d after seal, want 0 (running batches are not joinable)", b.Queued(0))
	}
	<-d1
	<-d2
}

// TestConcurrentEnqueues hammers two lanes from many goroutines (run
// with -race): every request completes and the counters balance.
func TestConcurrentEnqueues(t *testing.T) {
	mem := &recMem{}
	b, _ := newBatcher(t, mem, Config{MaxBatch: 4, MaxHoldMS: 2, TimeScale: 0.001})
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			done := make(chan struct{})
			b.Enqueue(i%2, i%3 == 0, done, nil)
			<-done
		}(i)
	}
	wg.Wait()
	st := b.Stats()
	if st.Requests != n {
		t.Fatalf("%d requests recorded, want %d", st.Requests, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Fatalf("implausible batch count %d", st.Batches)
	}
	if b.Queued(0) != 0 || b.Queued(1) != 0 {
		t.Fatalf("demand left after drain: %d/%d", b.Queued(0), b.Queued(1))
	}
	// Grant traffic must balance to zero.
	var sum float64
	for _, e := range mem.trace() {
		sum += e
	}
	if sum != 0 {
		t.Fatalf("unbalanced reservations: %v MB leaked", sum)
	}
}

// TestBatchRefFanIn: every tracing waiter's BatchRef is filled — with
// one shared batch id, the coalesced size, a real seal stamp, and the
// flush cause — before its done channel closes; a nil ref waiter in the
// same batch is untouched. On a grant-sealed batch Seal is the grant's
// instant, the batch's nominal start, even when the grant is served
// later; no member's launch follows it, and every member wakes at least
// the batch's scaled cost after it.
func TestBatchRefFanIn(t *testing.T) {
	b, _ := newBatcher(t, nil, Config{MaxBatch: 3, MaxHoldMS: 1e6, TimeScale: 0.01})
	refs := []*obs.BatchRef{{}, {}, nil}
	dones := make([]chan struct{}, 3)
	for i := range dones {
		dones[i] = make(chan struct{})
		b.Enqueue(0, false, dones[i], refs[i])
	}
	for _, d := range dones {
		<-d
	}
	if refs[0].Batch == 0 || refs[0].Batch != refs[1].Batch {
		t.Fatalf("waiters must share one nonzero batch id: %d vs %d", refs[0].Batch, refs[1].Batch)
	}
	for i, ref := range refs[:2] {
		if ref.N != 3 {
			t.Fatalf("ref[%d].N = %d, want 3", i, ref.N)
		}
		if ref.Seal.IsZero() {
			t.Fatalf("ref[%d] missing the seal stamp", i)
		}
		if ref.Flush != "size" {
			t.Fatalf("ref[%d].Flush = %q, want size", i, ref.Flush)
		}
	}

	mem := &recMem{held: true}
	gb, _ := newBatcher(t, mem, Config{MaxBatch: 3, TimeScale: 0.01})
	launched := make([]time.Time, 3)
	grefs := []*obs.BatchRef{{}, {}, {}}
	for i := range dones {
		dones[i] = make(chan struct{})
		launched[i] = time.Now()
		gb.Enqueue(0, true, dones[i], grefs[i])
	}
	at := time.Now()
	for time.Since(at) < time.Millisecond { // serve the grant a millisecond late
	}
	mem.grantNext(t, at)
	cost := gb.scaled(testModels()[0].BatchCostMS(3))
	for i, d := range dones {
		<-d
		wake, ref := time.Now(), grefs[i]
		if ref.N != 3 || ref.Flush != "grant" || !ref.Seal.Equal(at) {
			t.Fatalf("grant ref[%d] = %+v, want a batch of 3 sealed by grant at its instant %v", i, ref, at)
		}
		if launched[i].After(ref.Seal) {
			t.Fatalf("member %d launched %v after its batch's seal", i, launched[i].Sub(ref.Seal))
		}
		if wake.Sub(ref.Seal) < cost {
			t.Fatalf("member %d woke %v after the seal, under the batch's cost %v", i, wake.Sub(ref.Seal), cost)
		}
	}
}

// TestBatchRefHoldFlush: a lone request sealed by the hold timer reads
// flush cause "hold" and batch size 1.
func TestBatchRefHoldFlush(t *testing.T) {
	b, _ := newBatcher(t, nil, Config{MaxBatch: 8, MaxHoldMS: 5, TimeScale: 0.01})
	ref := &obs.BatchRef{}
	done := make(chan struct{})
	b.Enqueue(1, false, done, ref)
	<-done
	if ref.Batch == 0 || ref.N != 1 || ref.Flush != "hold" {
		t.Fatalf("hold-flushed ref = %+v, want n=1 flush=hold", ref)
	}
}

// TestPackageStartsNoGoroutine: every batch runs as a callback on the
// shared wheel, so the package has no go statement — nothing to leak,
// and nothing to schedule behind the workers.
func TestPackageStartsNoGoroutine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement", fset.Position(g.Pos()))
			}
			return true
		})
	}
}
