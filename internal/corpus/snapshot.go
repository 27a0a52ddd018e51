package corpus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ams/internal/zoo"
)

// Snapshot compacts the journal in place: it rewrites the journal as one
// admit record per item, the item's persisted outputs in model order,
// and its commit record if it has one, fsyncs that image under
// path+".tmp" and renames it over the journal. Outputs of evicted items
// are read back from the journal being replaced, so no persisted output
// is ever lost, no matter how many compactions pass.
func (c *Corpus) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.err != nil {
		return c.err
	}
	return c.snapshotLocked()
}

// snapshotLocked is the compaction body; the caller holds c.mu. A crash
// at any point leaves either the old journal or the compacted one, each
// complete.
func (c *Corpus) snapshotLocked() error {
	img, err := c.compacted()
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("corpus: compact journal: %w", err)
	}
	_, err = f.Write(img)
	//amsvet:allow lockblock compaction is a deliberate stop-the-world section: the corpus mutex must pin entries and the journal while the compacted journal is fsynced and swapped in
	if err = errors.Join(err, f.Sync(), f.Close()); err != nil {
		return fmt.Errorf("corpus: write compacted journal: %w", err)
	}
	// Windows renames neither over nor from a file open for writing. The
	// image holds every record of the handle being closed.
	_ = c.f.Close()
	renameErr := os.Rename(tmp, c.path) // on failure the old journal is intact
	f, err = os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0)
	if c.f = f; err != nil {
		// Nil, which Close tolerates: the corpus has no journal to write to.
		c.err = fmt.Errorf("corpus: reopen journal: %w", err)
		return c.err
	}
	if renameErr != nil {
		return fmt.Errorf("corpus: install compacted journal: %w", renameErr)
	}
	c.journalBytes = int64(len(img))
	c.commitsSinceSnap = 0
	c.snapshots++
	c.unsynced = 0 // every record appended so far is in the fsynced image
	if err := syncDir(filepath.Dir(c.path)); err != nil {
		// The rename, and every record appended after it, might not
		// survive a power loss.
		c.err = fmt.Errorf("corpus: sync journal directory: %w", err)
	}
	return c.err
}

// compacted renders the compacted journal image. An item's outputs are
// the union of those in the journal being replaced (an evicted item's
// live only there) and its memo (a legacy snapshot's live only there);
// inference is a pure function of the scene, so the two agree.
func (c *Corpus) compacted() ([]byte, error) {
	data, err := os.ReadFile(c.path)
	if err != nil {
		return nil, fmt.Errorf("corpus: read journal: %w", err)
	}
	recs, _, _, err := readJournal(data, "journal "+c.path)
	if err != nil {
		return nil, err
	}
	outs := make(map[[2]int]zoo.Output)
	for i := range recs {
		if recs[i].Kind == kindOutput {
			outs[[2]int{recs[i].Seq, recs[i].Model}] = recs[i].Out
		}
	}
	img := header(journalMagic, journalVersion)
	for _, e := range c.entries {
		models, memos := e.item.Memos()
		for i, m := range models {
			outs[[2]int{e.seq, m}] = memos[i]
		}
		img = appendRecord(img, &record{Kind: kindAdmit, Seq: e.seq, Tag: e.tag, Scene: *e.item.Scene()})
		for m := range c.z.Models {
			if out, ok := outs[[2]int{e.seq, m}]; ok {
				img = appendRecord(img, &record{Kind: kindOutput, Seq: e.seq, Model: m, Out: out})
			}
		}
		if e.committed {
			img = appendRecord(img, &record{Kind: kindCommit, Seq: e.seq, Executed: e.executed, ScheduleMS: e.scheduleMS})
		}
	}
	return img, nil
}

// syncDir fsyncs a directory, making the renames in it durable. Windows
// cannot sync a directory handle; there it does nothing.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
