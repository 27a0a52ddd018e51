package corpus

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// The version-1 formats: a journal of gob-encoded records, and the gob
// snapshot blob (path+".snap") that compaction wrote beside it. Both are
// read, never written: Open replays them and compacts at once into a
// version-2 journal, so every corpus an earlier build wrote still opens.

// parseJournalV1 decodes a version-1 journal image: uvarint-framed,
// independently gob-encoded records. It stops at the first incomplete
// or undecodable record, the torn tail of a crash mid-write.
func parseJournalV1(data []byte) (recs []record, goodOffset int) {
	off := 0
	for off < len(data) {
		length, n := binary.Uvarint(data[off:])
		if n <= 0 || length > maxRecordLen || off+n+int(length) > len(data) {
			break
		}
		var rec record
		dec := gob.NewDecoder(bytes.NewReader(data[off+n : off+n+int(length)]))
		if err := dec.Decode(&rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += n + int(length)
	}
	return recs, off
}

var snapMagic = [4]byte{'A', 'M', 'S', 'S'}

// snapEntryV1 is one item of a version-1 snapshot: its admit record,
// its commit record and its persisted outputs, folded into one place.
type snapEntryV1 struct {
	Seq        int
	Tag        string
	Scene      synth.Scene
	Committed  bool
	Executed   []int
	ScheduleMS float64
	Models     []int        // models with persisted outputs
	Outputs    []zoo.Output // parallel to Models
}

// readSnapshotV1 decodes a version-1 snapshot into the journal records
// it stands for: per item, its admit, its outputs and its commit, in
// sequence order. A missing file returns nil; an existing one returns a
// non-nil slice, even when it holds no item.
func readSnapshotV1(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: read snapshot: %w", err)
	}
	if err := checkHeader(data, snapMagic, 1, "snapshot "+path); err != nil {
		return nil, err
	}
	var blob struct{ Entries []snapEntryV1 }
	if err := gob.NewDecoder(bytes.NewReader(data[headerLen:])).Decode(&blob); err != nil {
		return nil, fmt.Errorf("corpus: decode snapshot %s: %w", path, err)
	}
	recs := []record{}
	for i, se := range blob.Entries {
		if se.Seq != i || len(se.Models) != len(se.Outputs) {
			return nil, fmt.Errorf("corpus: snapshot %s: entry %d (sequence %d, %d models, %d outputs) is corrupt",
				path, i, se.Seq, len(se.Models), len(se.Outputs))
		}
		recs = append(recs, record{Kind: kindAdmit, Seq: i, Tag: se.Tag, Scene: se.Scene})
		for j, m := range se.Models {
			recs = append(recs, record{Kind: kindOutput, Seq: i, Model: m, Out: se.Outputs[j]})
		}
		if se.Committed {
			recs = append(recs, record{Kind: kindCommit, Seq: i, Executed: se.Executed, ScheduleMS: se.ScheduleMS})
		}
	}
	return recs, nil
}
