package vtime

import (
	"syscall"
	"time"
)

// preciseSleep parks the calling thread in nanosleep(2) for d, which
// the kernel times with an hrtimer (overshoot ≈ the thread's 50 µs
// timer slack) instead of the Go idle poller's whole-millisecond
// epoll_wait. It may return early: Go's SIGURG pre-emption and any
// other signal end the syscall with EINTR, which is why the error is
// dropped and the caller re-reads the clock instead of trusting d.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
