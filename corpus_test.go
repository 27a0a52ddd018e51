package ams

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestRefusedCorpusOptionsTouchNoDisk: OpenCorpusDir refuses bad options
// before it creates the directory or writes its manifest, in the words
// OpenCorpus uses, so a refusal does not pin the segment count of the
// next open of that directory.
func TestRefusedCorpusOptionsTouchNoDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segments.d")
	bad := CorpusOptions{SyncEveryMS: -1}
	_, derr := testSys.OpenCorpusDir(dir, 0, bad)
	_, ferr := testSys.OpenCorpus(filepath.Join(t.TempDir(), "one.wal"), bad)
	if derr == nil || ferr == nil || derr.Error() != ferr.Error() {
		t.Fatalf("OpenCorpusDir: %v; OpenCorpus: %v; want one error from both for %+v", derr, ferr, bad)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the refused open left %s behind (stat: %v)", dir, err)
	}
	c, err := testSys.OpenCorpusDir(dir, 2, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Segments() != 2 {
		t.Fatalf("opened %d segments, want 2", c.Segments())
	}
}

// FuzzCorpusOptions: OpenCorpus and a one-segment OpenCorpusDir accept or
// refuse every option set together, with one error text, and neither
// panics. A refusal leaves no file or directory behind; an accepted
// corpus closes cleanly.
func FuzzCorpusOptions(f *testing.F) {
	for _, o := range []CorpusOptions{
		{},
		{MaxResident: 4, SnapshotEvery: 8, SyncEveryN: 16, SyncEveryMS: 5},
		{SyncEveryMS: 1e-9},
		{SyncEveryMS: math.Inf(1)},
		{SyncEveryMS: 1e300},
		{SyncEveryMS: math.NaN()},
		{MaxResident: -1},
		{SnapshotEvery: -1},
		{SyncEveryN: -1},
		{SyncEveryMS: -1},
	} {
		f.Add(o.MaxResident, o.SnapshotEvery, o.SyncEveryN, o.SyncEveryMS)
	}
	f.Fuzz(func(t *testing.T, maxResident, snapshotEvery, syncEveryN int, syncEveryMS float64) {
		opts := CorpusOptions{MaxResident: maxResident, SnapshotEvery: snapshotEvery,
			SyncEveryN: syncEveryN, SyncEveryMS: syncEveryMS}
		root := t.TempDir()
		one, ferr := testSys.OpenCorpus(filepath.Join(root, "one.wal"), opts)
		dir, derr := testSys.OpenCorpusDir(filepath.Join(root, "segments.d"), 1, opts)
		for _, c := range []*Corpus{one, dir} {
			if c != nil {
				if err := c.Close(); err != nil {
					t.Errorf("Close of a corpus opened with %+v: %v", opts, err)
				}
			}
		}
		if (ferr == nil) != (derr == nil) || ferr != nil && ferr.Error() != derr.Error() {
			t.Fatalf("OpenCorpus: %v; OpenCorpusDir: %v; want one outcome from both for %+v", ferr, derr, opts)
		}
		if ferr == nil {
			return
		}
		left, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("refusing %+v left %s behind", opts, e.Name())
		}
	})
}
