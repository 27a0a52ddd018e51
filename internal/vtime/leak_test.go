package vtime

import (
	"testing"

	"ams/internal/leaktest"
)

// Every wheel a test starts must have released its dispatcher by the
// time the package's tests end.
func TestMain(m *testing.M) {
	leaktest.VerifyTestMain(m)
}
