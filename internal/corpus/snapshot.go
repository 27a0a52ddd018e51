package corpus

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// The snapshot's wire format: the same magic+version header shape as the
// journal (and internal/oracle's store blob), followed by one gob blob.
var snapMagic = [4]byte{'A', 'M', 'S', 'S'}

const snapVersion = 1

// snapEntry is one item's compacted state: the admit record, the commit
// record, and every memoized output, folded into one place.
type snapEntry struct {
	Seq        int
	Tag        string
	Scene      synth.Scene
	Committed  bool
	Executed   []int
	ScheduleMS float64
	Models     []int        // models with persisted outputs
	Outputs    []zoo.Output // parallel to Models
}

// snapBlob is the gob payload of a snapshot file.
type snapBlob struct {
	Entries []snapEntry
}

// snapPath is where the corpus's snapshot lives.
func (c *Corpus) snapPath() string { return c.path + ".snap" }

// Snapshot compacts the corpus: it merges the previous snapshot, the
// journal, and the in-memory state into one blob at path+".snap"
// (written atomically via rename), then truncates the journal to its
// header. Outputs of evicted items are carried over from the previous
// snapshot or journal, so no persisted output is ever lost, no matter
// how many snapshot generations pass.
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

func (c *Corpus) snapshotLocked() error {
	// Persisted outputs not in memory (evicted items): recover them from
	// the previous snapshot, then overlay the journal — later records
	// win, matching replay order.
	disk := make(map[int]map[int]zoo.Output)
	keep := func(seq, m int, out zoo.Output) {
		if disk[seq] == nil {
			disk[seq] = make(map[int]zoo.Output)
		}
		disk[seq][m] = out
	}
	if old, err := readSnapBlob(c.snapPath()); err != nil {
		return err
	} else if old != nil {
		for _, se := range old.Entries {
			for i, m := range se.Models {
				keep(se.Seq, m, se.Outputs[i])
			}
		}
	}
	if data, err := os.ReadFile(c.path); err == nil {
		recs, _, _, err := readJournal(data, "journal "+c.path)
		if err != nil {
			return err
		}
		for i := range recs {
			if recs[i].Kind == kindOutput {
				keep(recs[i].Seq, recs[i].Model, recs[i].Out)
			}
		}
	}

	blob := snapBlob{Entries: make([]snapEntry, len(c.entries))}
	for i, e := range c.entries {
		se := snapEntry{
			Seq:        e.seq,
			Tag:        e.tag,
			Scene:      *e.item.Scene(),
			Committed:  e.committed,
			Executed:   append([]int(nil), e.executed...),
			ScheduleMS: e.scheduleMS,
		}
		if e.evicted {
			for m, out := range disk[e.seq] {
				se.Models = append(se.Models, m)
				se.Outputs = append(se.Outputs, out)
			}
			// Deterministic file bytes: map order is randomized.
			sortMemos(se.Models, se.Outputs)
		} else {
			se.Models, se.Outputs = e.item.Memos()
		}
		blob.Entries[i] = se
	}

	tmp := c.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("corpus: snapshot: %w", err)
	}
	var payload bytes.Buffer
	payload.Write(header(snapMagic, snapVersion))
	if err := gob.NewEncoder(&payload).Encode(blob); err != nil {
		_ = f.Close()
		return fmt.Errorf("corpus: snapshot encode: %w", err)
	}
	if _, err := f.Write(payload.Bytes()); err != nil {
		_ = f.Close()
		return fmt.Errorf("corpus: snapshot write: %w", err)
	}
	//amsvet:allow lockblock snapshot is a deliberate stop-the-world compaction: the corpus mutex must pin entries and the journal while the snapshot is fsynced and swapped in
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("corpus: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, c.snapPath()); err != nil {
		return fmt.Errorf("corpus: snapshot rename: %w", err)
	}

	// The snapshot now carries everything: restart the journal. A crash
	// between the rename and this truncation only leaves records the
	// snapshot already contains, which replay deduplicates by Seq.
	if err := c.f.Truncate(0); err != nil {
		return fmt.Errorf("corpus: truncate journal after snapshot: %w", err)
	}
	if _, err := c.f.Seek(0, 0); err != nil {
		return fmt.Errorf("corpus: rewind journal after snapshot: %w", err)
	}
	if _, err := c.f.Write(header(journalMagic, journalVersion)); err != nil {
		return fmt.Errorf("corpus: rewrite journal header: %w", err)
	}
	c.journalBytes = headerLen
	c.commitsSinceSnap = 0
	c.snapshots++
	// The truncated journal holds only its (reconstructible) header, and
	// every truncated record now lives in the fsynced snapshot.
	c.unsynced = 0
	return nil
}

// sortMemos orders a (models, outputs) pair by model ID (insertion sort:
// the lists are at most the zoo's size).
func sortMemos(models []int, outs []zoo.Output) {
	for i := 1; i < len(models); i++ {
		for j := i; j > 0 && models[j-1] > models[j]; j-- {
			models[j-1], models[j] = models[j], models[j-1]
			outs[j-1], outs[j] = outs[j], outs[j-1]
		}
	}
}

// readSnapBlob loads a snapshot file; a missing file returns (nil, nil).
func readSnapBlob(path string) (*snapBlob, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: read snapshot: %w", err)
	}
	if err := checkHeader(data, snapMagic, snapVersion, "snapshot "+path); err != nil {
		return nil, err
	}
	var blob snapBlob
	if err := gob.NewDecoder(bytes.NewReader(data[headerLen:])).Decode(&blob); err != nil {
		return nil, fmt.Errorf("corpus: decode snapshot: %w", err)
	}
	return &blob, nil
}

// loadSnapshot seeds the in-memory state from the snapshot file, if one
// exists. Every persisted output is preloaded into its item's memo so
// recovery never re-runs a model; callers that do not need the history
// resident reclaim committed items afterwards (ReclaimCommitted).
func (c *Corpus) loadSnapshot() error {
	blob, err := readSnapBlob(c.snapPath())
	if err != nil || blob == nil {
		return err
	}
	for i := range blob.Entries {
		se := &blob.Entries[i]
		if se.Seq != len(c.entries) {
			return fmt.Errorf("corpus: snapshot %s: entry %d has sequence %d (corrupt ordering)",
				c.snapPath(), i, se.Seq)
		}
		e := c.addEntry(se.Scene, se.Tag)
		e.committed = se.Committed
		if se.Committed {
			c.committed++
		}
		e.executed = se.Executed
		e.scheduleMS = se.ScheduleMS
		for j, m := range se.Models {
			if m >= 0 && m < len(c.z.Models) {
				e.item.Preload(m, se.Outputs[j])
			}
		}
	}
	return nil
}
