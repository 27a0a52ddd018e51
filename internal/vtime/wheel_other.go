//go:build !linux

package vtime

import "time"

// preciseSleep has no hrtimer-backed primitive to call here, so it
// falls back to the runtime timer and the wheel is as accurate as
// time.Sleep is on the platform.
func preciseSleep(d time.Duration) { time.Sleep(d) }
