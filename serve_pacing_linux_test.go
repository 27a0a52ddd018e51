package ams

import (
	"slices"
	"testing"
	"time"

	"ams/internal/service"
)

// stampedSource records when the replay loop asks for each item, which
// is right after it submitted the one before.
type stampedSource struct {
	SceneSource
	asked []time.Time
}

func (s *stampedSource) Next() (Item, bool) {
	s.asked = append(s.asked, time.Now())
	return s.SceneSource.Next()
}

// TestServePacesSubMillisecondArrivals: a 2.5 Hz trace at TimeScale 1e-3
// has a mean gap of 400 µs. Paced on the wheel, arrivals land on the
// Poisson instants the trace computed; paced on a raw runtime timer
// (the parent's time.After) each wait is rounded up to the millisecond
// and the arrivals come in bursts, half a millisecond late at the
// median. Linux-only: the precision is wheel_linux.go's.
func TestServePacesSubMillisecondArrivals(t *testing.T) {
	cfg := serveCfg(8)
	trace := ServeTrace{ArrivalRateHz: 2.5, Items: 300, Seed: 11, OpenLoop: true}
	src := &stampedSource{SceneSource: testSys.TestSplitSource()}
	if _, err := testSys.Serve(bg, testAgent, cfg, trace, src); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if len(src.asked) != trace.Items {
		t.Fatalf("replay asked for %d items, want %d", len(src.asked), trace.Items)
	}
	// asked[0] trails the replay's start by the time it takes to draw the
	// trace (tens of microseconds), and asked[i+1] follows arrival i's
	// submit.
	arrivals := service.Arrivals(trace.Items, trace.ArrivalRateHz, trace.Seed)
	late := make([]time.Duration, 0, trace.Items-1)
	for i, at := range arrivals[:trace.Items-1] {
		want := time.Duration(at * cfg.TimeScale * float64(time.Second))
		late = append(late, src.asked[i+1].Sub(src.asked[0])-want)
	}
	slices.Sort(late)
	if m := late[len(late)/2]; m >= 200*time.Microsecond {
		t.Fatalf("median arrival lateness %v, want < 200µs", m)
	}
}
