package batch

import (
	"testing"

	"ams/internal/leaktest"
)

// TestMain fails the package when a test's timer wheel (and with it any
// pending batch execution or lane hold timer) outlives the tests.
func TestMain(m *testing.M) {
	leaktest.VerifyTestMain(m)
}
