package shard

import (
	"testing"

	"ams/internal/leaktest"
)

// TestMain fails the package when the shard servers' workers — the
// router starts no goroutine of its own — outlive the tests.
func TestMain(m *testing.M) {
	leaktest.VerifyTestMain(m)
}
