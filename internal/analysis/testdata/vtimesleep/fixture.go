// This fixture impersonates a simulated-execution package: raw stdlib
// timers are violations, the vtime wheel and annotated wall-clock sites
// are not.
//
//amsvet:importpath ams/internal/sim
package sim

import (
	"syscall"
	"time"
)

type wheel struct{}

func (w *wheel) Sleep(d time.Duration) {}

func rawSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep in simulated-execution package"
}

func rawAfter() {
	<-time.After(time.Second) // want "time.After in simulated-execution package"
}

func rawTimer() *time.Timer {
	return time.NewTimer(time.Second) // want "time.NewTimer in simulated-execution package"
}

func rawTicker() {
	t := time.NewTicker(time.Second) // want "time.NewTicker in simulated-execution package"
	t.Stop()
}

func rawSelect() {
	syscall.Select(0, nil, nil, nil, &syscall.Timeval{Usec: 100}) // want "syscall.Select in simulated-execution package"
}

func wheelSleep(w *wheel) {
	w.Sleep(time.Millisecond) // the sanctioned wrapper
}

func epochStamp() time.Time {
	return time.Now() // reading the clock is not a pause
}

func laterOf(a, b time.Time) time.Time {
	if b.After(a) { // the method Time.After compares instants; it is not a pause
		return b
	}
	return a
}

func drainTimeout() {
	//amsvet:allow vtimesleep genuine wall-clock drain timeout, not simulated pacing
	<-time.After(time.Second)
}
