package main

import "testing"

// TestExperimentTable checks the one table behind -list, -exp all, the
// usage string and dispatch without running an experiment: every listed
// id resolves to a runnable row, ids are unique, and an unknown id is an
// error.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range ids() {
		if seen[id] {
			t.Errorf("id %q listed twice", id)
		}
		seen[id] = true
		if e, err := lookup(id); err != nil || e.run == nil {
			t.Errorf("listed id %q does not resolve to a runnable row: %v", id, err)
		}
	}
	if _, err := lookup("ext-nope"); err == nil {
		t.Error("unknown id resolved")
	}
}
