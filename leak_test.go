package ams

import (
	"testing"

	"ams/internal/leaktest"
)

// TestMain fails the package when a server's workers, wheels, flushers
// or HTTP exporter, or a batch's workers, outlive the tests: Close and
// LabelBatch must drain everything they started.
func TestMain(m *testing.M) {
	leaktest.VerifyTestMain(m)
}
