package shard

import (
	"testing"

	"ams/internal/leaktest"
)

// TestMain fails the package when router dispatchers, steal loops, or
// the shard servers' goroutines outlive the tests.
func TestMain(m *testing.M) {
	leaktest.VerifyTestMain(m)
}
