package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ams/internal/obs"
)

// grantLog records the order grant callbacks ran in.
type grantLog struct {
	mu  sync.Mutex
	ran []int
}

func (l *grantLog) fn(id int) func(time.Time) {
	return func(time.Time) {
		l.mu.Lock()
		l.ran = append(l.ran, id)
		l.mu.Unlock()
	}
}

func (l *grantLog) order() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.ran...)
}

func sameOrder(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestGrantsServedInFIFOOrder: queued grants are served strictly from
// the head of the line — a later grant that would fit waits behind an
// earlier one that does not — and each counts as a wait with its time
// observed.
func TestGrantsServedInFIFOOrder(t *testing.T) {
	a := newAccountant(1000)
	a.waitHist = obs.NewRegistry().Histogram("wait", "test")
	var log grantLog
	a.Grant(1000, log.fn(-1)) // the holder: nobody queued, fits, runs at once
	for i, mb := range []float64{600, 300, 500, 200} {
		a.Grant(mb, log.fn(i))
	}
	if got := log.order(); !sameOrder(got, []int{-1}) {
		t.Fatalf("grants ran %v before any release, want only the holder", got)
	}
	a.Release(1000, time.Time{})
	// 600 and 300 fit; 500 does not, and 200 must not pass it.
	if got := log.order(); !sameOrder(got, []int{-1, 0, 1}) {
		t.Fatalf("after the first release grants ran %v, want [-1 0 1]", got)
	}
	a.Release(600, time.Time{})
	if got := log.order(); !sameOrder(got, []int{-1, 0, 1, 2, 3}) {
		t.Fatalf("after the second release grants ran %v, want [-1 0 1 2 3]", got)
	}
	if a.inUse() != 1000 {
		t.Fatalf("%v MB in use, want 1000 (300+500+200)", a.inUse())
	}
	if a.waitCount() != 4 || a.waitHist.Count() != 4 {
		t.Fatalf("%d waits, %d observed, want 4 queued grants each way", a.waitCount(), a.waitHist.Count())
	}
}

// TestGrantStartInstants: a grant that fits at once starts at the
// caller's now. One that a release serves starts at the later of the
// release's instant and the instant the grant queued, so never before it
// asked; a release at the zero instant means now.
func TestGrantStartInstants(t *testing.T) {
	a := newAccountant(1000)
	var got [5]time.Time
	record := func(i int) func(time.Time) { return func(at time.Time) { got[i] = at } }
	inside := func(at, lo, hi time.Time) bool { return !at.Before(lo) && !at.After(hi) }
	t0 := time.Now()
	a.Grant(1000, record(0)) // fits at once
	t1 := time.Now()
	a.Grant(600, record(1)) // queues at some instant in [t1, t2]
	t2 := time.Now()
	a.Grant(400, record(2)) // queues at some instant in [t2, t3]
	t3 := time.Now()
	if !inside(got[0], t0, t1) {
		t.Fatalf("immediate grant started at %v, want the caller's now in [%v, %v]", got[0], t0, t1)
	}
	// Freed before either grant asked: each starts when it queued.
	a.Release(1000, t0)
	if !inside(got[1], t1, t2) || !inside(got[2], t2, t3) {
		t.Fatalf("grants started at %v and %v, want their queueing instants, in [%v, %v] and [%v, %v]",
			got[1], got[2], t1, t2, t2, t3)
	}
	// Freed after the grant asked: it starts at the release's instant.
	a.Grant(600, record(3))
	freed := time.Now()
	a.Release(600, freed)
	if !got[3].Equal(freed) {
		t.Fatalf("grant started at %v, want the release's instant %v", got[3], freed)
	}
	a.Grant(400, record(4))
	t4 := time.Now()
	a.Release(400, time.Time{})
	if t5 := time.Now(); !inside(got[4], t4, t5) {
		t.Fatalf("grant served by a zero-instant release started at %v, want now, in [%v, %v]", got[4], t4, t5)
	}
}

// TestGrantLineDoesNotStarveLargeFootprint: a 1 000 MB grant queued
// behind a 500 MB holder is granted at the first release that fits it,
// before a 520 MB grant that arrived later — although the 520 MB one
// fit the headroom the whole time.
func TestGrantLineDoesNotStarveLargeFootprint(t *testing.T) {
	a := newAccountant(1024)
	var log grantLog
	a.Grant(500, log.fn(0))
	a.Grant(1000, log.fn(1))
	for i := 2; i < 6; i++ {
		a.Grant(520, log.fn(i)) // each fits 1024-500, none may jump the line
	}
	if got := log.order(); !sameOrder(got, []int{0}) {
		t.Fatalf("grants ran %v while the large one waited, want [0]", got)
	}
	a.Release(500, time.Time{})
	if got := log.order(); !sameOrder(got, []int{0, 1}) {
		t.Fatalf("first fitting release ran %v, want the 1000 MB grant next: [0 1]", got)
	}
	a.Release(1000, time.Time{})
	if got := log.order(); !sameOrder(got, []int{0, 1, 2}) {
		t.Fatalf("grants ran %v, want [0 1 2]", got)
	}
}

// TestClaimAboveBudgetPanics: a grant or a reservation that could never
// fit the budget panics naming the megabytes, never runs the grant's
// callback, and leaves nothing claimed, counted or queued. The panic
// comes before the lock, so the accountant stays usable.
func TestClaimAboveBudgetPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		claim func(a *accountant, ran *bool)
	}{
		{"grant", func(a *accountant, ran *bool) { a.Grant(1000.5, func(time.Time) { *ran = true }) }},
		{"reserve", func(a *accountant, _ *bool) { a.reserve(1000.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAccountant(1000)
			ran := false
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "1000.5 MB exceeds the whole budget") {
						t.Errorf("claim of 1000.5 MB panicked with %q, want it to name the MB", msg)
					}
				}()
				tc.claim(a, &ran)
			}()
			if ran || a.inUse() != 0 || a.waitCount() != 0 || len(a.line) != 0 {
				t.Fatalf("refused claim left state: ran=%v inUse=%v waits=%d line=%d", ran, a.inUse(), a.waitCount(), len(a.line))
			}
		})
	}
}

// TestAwaitMoreEndsWhenNothingIsClaimed: a stalled ask waits while a
// claim is outstanding and asks again once a release raises the
// availability. Once no claim is left it ends, even when the last
// release gave back less than its claim: no further release can come,
// so waiting would hang the item.
func TestAwaitMoreEndsWhenNothingIsClaimed(t *testing.T) {
	for _, tc := range []struct {
		name      string
		releaseMB float64 // what the 300 MB claim gives back
		want      bool
	}{
		{"release all", 300, true},
		{"release less", 100, true},
		{"release nothing", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAccountant(1000)
			ask := func(observedMB float64) <-chan bool {
				got := make(chan bool, 1)
				go func() { got <- a.awaitMore(observedMB) }()
				return got
			}
			answer := func(got <-chan bool) bool {
				select {
				case ok := <-got:
					return ok
				case <-time.After(5 * time.Second):
					t.Fatalf("awaitMore still waiting 5 s after the only claim gave back %v MB", tc.releaseMB)
					return false
				}
			}
			a.reserve(300)
			got := ask(700)
			for a.waitCount() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			a.Release(tc.releaseMB, time.Time{})
			if ok := answer(got); ok != tc.want {
				t.Fatalf("awaitMore = %v after the claim gave back %v MB, want %v", ok, tc.releaseMB, tc.want)
			}
			if answer(ask(1000 - a.inUse())) {
				t.Fatal("with nothing claimed, awaitMore must decline at once")
			}
		})
	}
}

// TestReserveBypassesGrantLine is the deadlock case the accountant's
// comment names: X holds 4 of 10 MB and its 5 MB grant waits in line; Z
// holds 3 and reserves 2, which fit. A strict line would park Z behind
// X and neither could release; fits-now grants Z at once.
func TestReserveBypassesGrantLine(t *testing.T) {
	a := newAccountant(10)
	var log grantLog
	a.Grant(4, log.fn(0)) // X's holding
	a.reserve(3)          // Z's holding
	a.Grant(5, log.fn(1)) // X waits: 7+5 > 10
	done := make(chan struct{})
	go func() { a.reserve(2); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a holder's fitting reserve queued behind the grant line")
	}
	a.Release(3, time.Time{})
	a.Release(2, time.Time{})
	if got := log.order(); !sameOrder(got, []int{0, 1}) {
		t.Fatalf("grants ran %v once Z released, want [0 1]", got)
	}
	a.Release(4, time.Time{})
	a.Release(5, time.Time{})
	if a.inUse() != 0 {
		t.Fatalf("%v MB still in use", a.inUse())
	}
}

// TestGrantHammerNeverOvercommits (run with -race): goroutines mixing
// grants and reservations of 200–1 000 MB against a 1 024 MB budget
// never hold more than the budget between them, every grant is served,
// and the accountant drains to zero with an empty line. Grants release
// at their start instant plus a nominal hold, as batches do, so queued
// grants are served from instants both before and after they asked.
func TestGrantHammerNeverOvercommits(t *testing.T) {
	const budget = 1024
	a := newAccountant(budget)
	var held, peak atomic.Int64
	hold := func(mb int64) {
		if now := held.Add(mb); now > budget {
			t.Errorf("%d MB held at once, budget %d", now, budget)
		} else {
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mb := int64(200 + (g*131+i*37)%801)
				var end time.Time // zero (now) for a reservation
				if (g+i)%4 == 0 {
					a.reserve(float64(mb))
					hold(mb)
				} else {
					granted := make(chan time.Time, 1)
					a.Grant(float64(mb), func(at time.Time) { hold(mb); granted <- at })
					end = (<-granted).Add(10 * time.Microsecond)
				}
				if i%8 == 0 {
					time.Sleep(20 * time.Microsecond)
				}
				held.Add(-mb)
				a.Release(float64(mb), end)
			}
		}(g)
	}
	wg.Wait()
	if a.inUse() != 0 || a.lineHead != len(a.line) {
		t.Fatalf("%v MB in use, %d grants still queued after the hammer", a.inUse(), len(a.line)-a.lineHead)
	}
	if a.peak() > budget || peak.Load() > budget {
		t.Fatalf("peak %v / %d MB over the %d MB budget", a.peak(), peak.Load(), budget)
	}
}
