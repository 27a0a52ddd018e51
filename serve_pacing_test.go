package ams

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestServeCancelStopsArrivals: cancelling ctx while the replay is
// waiting for the next arrival ends admission there — Replay returns the
// context's error, and the server closes with only what it had admitted,
// long before the rest of the trace would have arrived.
func TestServeCancelStopsArrivals(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	time.AfterFunc(50*time.Millisecond, cancel)
	cfg := serveCfg(2)
	cfg.TimeScale = 1 // 2 Hz on the wall clock: the 1000th arrival is minutes away
	trace := ServeTrace{ArrivalRateHz: 2, Items: 1000, Seed: 5, OpenLoop: true}
	start := time.Now()
	st, err := replayTrace(ctx, testAgent, cfg, trace, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Replay took %v to notice a cancellation at 50ms", elapsed)
	}
	if st.Completed >= int64(trace.Items) {
		t.Fatalf("%d of %d items completed after an early cancel", st.Completed, trace.Items)
	}
}
