// The negative fixture: an identical raw sleep in a package outside the
// simulated-execution set stays quiet — vtimesleep is scoped, not
// global.
//
//amsvet:importpath ams/internal/corpus
package corpus

import (
	"syscall"
	"time"
)

func wallClockFlusher() {
	time.Sleep(time.Millisecond) // wall-clock package: no diagnostic
	tick := time.NewTicker(time.Second)
	tick.Stop()
	syscall.Select(0, nil, nil, nil, &syscall.Timeval{Usec: 100}) // nor for a raw select(2) timeout
}
