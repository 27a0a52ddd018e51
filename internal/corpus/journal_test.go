package corpus

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ams/internal/synth"
	"ams/internal/zoo"
)

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz from the encoder and the manifest writer")

// encodeAll frames recs back to back, as a journal image after its header.
func encodeAll(recs []record) []byte {
	var b []byte
	for i := range recs {
		b = appendRecord(b, &recs[i])
	}
	return b
}

// randomRecord draws a record of a random kind whose fields span the
// encodings' edge cases: negative and large ints, empty and long slices,
// empty and non-ASCII tags, infinities and negative zero. Only the
// fields of its kind are set, and empty slices are nil, as decoded.
func randomRecord(r *rand.Rand) record {
	anInt := func() int {
		switch r.IntN(4) {
		case 0:
			return r.IntN(3) - 1
		case 1:
			return r.IntN(2000)
		case 2:
			return int(r.Int64())
		default:
			return -int(r.Int64())
		}
	}
	ints := func() []int {
		var vs []int
		for n := r.IntN(4) * r.IntN(20); len(vs) < n; {
			vs = append(vs, anInt())
		}
		return vs
	}
	aFloat := func() float64 {
		switch r.IntN(6) {
		case 0:
			return math.Inf(1 - 2*r.IntN(2))
		case 1:
			return math.Copysign(0, -1)
		default:
			return r.NormFloat64() * math.Pow(10, float64(r.IntN(20)-10))
		}
	}
	rec := record{Kind: 1 + r.IntN(3), Seq: r.IntN(1 << (1 + r.IntN(min(40, bits.UintSize-2))))}
	switch rec.Kind {
	case kindAdmit:
		tag := make([]byte, r.IntN(3)*r.IntN(12))
		for i := range tag {
			tag[i] = byte(r.Uint32())
		}
		rec.Tag = string(tag)
		rec.Scene = synth.Scene{
			ID: anInt(), Seed: r.Uint64(), Place: anInt(), Indoor: r.IntN(2) == 1,
			Objects: ints(), Persons: anInt(), Faces: anInt(), Emotion: anInt(),
			Gender: anInt(), Action: anInt(), PoseKP: ints(), HandKP: ints(), Dog: anInt(),
		}
	case kindOutput:
		rec.Model = anInt()
		for n := r.IntN(3) * r.IntN(30); len(rec.Out.Labels) < n; {
			rec.Out.Labels = append(rec.Out.Labels, zoo.LabelConf{ID: anInt(), Conf: aFloat()})
		}
	case kindCommit:
		rec.Executed = ints()
		rec.ScheduleMS = aFloat()
	}
	return rec
}

// TestJournalRecordRoundTrip: any record, framed and parsed back, is the
// record it was, and the parser consumes exactly the encoded bytes.
func TestJournalRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		recs := make([]record, 1+r.IntN(8))
		for i := range recs {
			recs[i] = randomRecord(r)
		}
		data := encodeAll(recs)
		got, off, err := parseJournal(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if off != len(data) {
			t.Fatalf("trial %d: parsed to offset %d of %d", trial, off, len(data))
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("trial %d: round trip differs:\n got %+v\nwant %+v", trial, got, recs)
		}
	}
}

// seedRecords are the records behind the checked-in fuzz seeds: every
// kind, empty slices, an empty tag, and the negative "absent" IDs.
func seedRecords() map[string][]record {
	admit := record{Kind: kindAdmit, Seq: 0, Tag: "cam-7/000131", Scene: synth.Scene{
		ID: 131, Seed: 0x9e3779b97f4a7c15, Place: 238, Indoor: true, Objects: []int{50, 57, 49},
		Persons: 1, Faces: 1, Emotion: 538, Gender: 541, Action: -1,
		PoseKP: []int{531, 525}, HandKP: []int{967, 979, 957}, Dog: 1070,
	}}
	bare := record{Kind: kindAdmit, Seq: 1, Scene: synth.Scene{
		ID: 2, Seed: 1, Place: 17, Emotion: -1, Gender: -1, Action: -1, Dog: -1,
	}}
	output := record{Kind: kindOutput, Seq: 0, Model: 12, Out: zoo.Output{Labels: []zoo.LabelConf{
		{ID: 531, Conf: 0.91}, {ID: 525, Conf: 0.43}, {ID: 1103, Conf: 0.01},
	}}}
	empty := record{Kind: kindOutput, Seq: 1, Model: 6}
	commit := record{Kind: kindCommit, Seq: 0, Executed: []int{12, 0, 29}, ScheduleMS: 181.25}
	none := record{Kind: kindCommit, Seq: 1, ScheduleMS: 0.5}
	return map[string][]record{
		"admit":   {admit},
		"bare":    {bare},
		"output":  {output},
		"empty":   {empty},
		"commit":  {commit},
		"none":    {none},
		"journal": {admit, bare, output, empty, commit, none},
	}
}

// TestFuzzSeedsMatchTheEncoder keeps the checked-in seed corpora what
// the journal encoder and the manifest writer write today; -update
// regenerates them.
func TestFuzzSeedsMatchTheEncoder(t *testing.T) {
	seeds := map[string][]byte{}
	for name, recs := range seedRecords() {
		seeds[filepath.Join("FuzzParseJournal", name)] = encodeAll(recs)
	}
	for name, n := range manifestSeeds {
		seeds[filepath.Join("FuzzParseManifest", name)] = []byte(manifestBody(n))
	}
	for name, data := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join("testdata", "fuzz", name)
		if *updateSeeds {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if string(got) != want {
			t.Fatalf("seed %s is stale: regenerate with -update", name)
		}
	}
}

// FuzzParseJournal: the parser never panics, never reads past its input,
// reports damage only as ErrCorrupt, and every record it returns
// re-encodes to exactly the bytes it was parsed from.
func FuzzParseJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := parseJournal(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(data))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("parse error %v is not ErrCorrupt", err)
		}
		if re := encodeAll(recs); !bytes.Equal(re, data[:good]) {
			t.Fatalf("%d records re-encode to %d bytes that differ from the %d parsed", len(recs), len(re), good)
		}
	})
}

// recordEnds returns the file offset at which each record of a v2
// journal file ends.
func recordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	recs, _, err := parseJournal(data[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, len(recs))
	off := headerLen
	for i := range recs {
		off += len(appendRecord(nil, &recs[i]))
		ends[i] = off
	}
	return ends
}

// TestJournalTornTailForms: what a crash can leave at the tail — a
// partial final frame, a final frame whose bytes did not all land, a
// zero-filled extension — parses to the records before it, no error.
func TestJournalTornTailForms(t *testing.T) {
	recs := seedRecords()["journal"]
	clean := encodeAll(recs)
	last := len(clean) - len(appendRecord(nil, &recs[len(recs)-1]))
	flipped := bytes.Clone(clean)
	flipped[len(flipped)-crcLen-1] ^= 0x40
	for name, tc := range map[string]struct {
		data []byte
		good int
		n    int
	}{
		"partial final frame": {clean[:len(clean)-3], last, len(recs) - 1},
		"bad final checksum":  {flipped, last, len(recs) - 1},
		"zero remainder":      {append(bytes.Clone(clean), make([]byte, 64)...), len(clean), len(recs)},
		"zero frame":          {append(bytes.Clone(clean), make([]byte, 1+crcLen)...), len(clean), len(recs)},
	} {
		got, good, err := parseJournal(tc.data)
		if err != nil || good != tc.good || len(got) != tc.n {
			t.Errorf("%s: %d records to offset %d, err %v; want %d to %d, no error", name, len(got), good, err, tc.n, tc.good)
		}
	}
}

// TestJournalDamageBeforeTheTail: one flipped byte in a middle record
// fails the open with ErrCorrupt; the same flip in the last record is a
// torn tail, truncated once, after which appends resume.
func TestJournalDamageBeforeTheTail(t *testing.T) {
	path := tempJournal(t)
	c := mustOpen(t, path, Options{})
	models := []int{0, 6}
	want := populate(t, c, 3, models, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, data)
	dir := t.TempDir()

	mid := bytes.Clone(data)
	mid[ends[len(ends)/2]-crcLen-1] ^= 0x01
	midPath := filepath.Join(dir, "mid.wal")
	if err := os.WriteFile(midPath, mid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(z, midPath, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("middle-record damage: open got %v, want ErrCorrupt", err)
	}

	tail := bytes.Clone(data)
	tail[len(tail)-crcLen-1] ^= 0x01 // the last record: item 2's commit
	tailPath := filepath.Join(dir, "tail.wal")
	if err := os.WriteFile(tailPath, tail, 0o644); err != nil {
		t.Fatal(err)
	}
	tc := mustOpen(t, tailPath, Options{})
	if st := tc.Stats(); st.JournalBytes != int64(ends[len(ends)-2]) {
		t.Fatalf("journal is %d bytes after recovery, want the %d before the damaged record", st.JournalBytes, ends[len(ends)-2])
	}
	states := tc.States()
	if len(states) != 3 || !states[1].Committed || states[2].Committed {
		t.Fatalf("recovered states %+v: want items 0 and 1 committed, item 2 not", states)
	}
	for seq := 0; seq < 3; seq++ {
		for _, m := range models {
			if got := tc.Item(seq).Output(m); !reflect.DeepEqual(got, want[[2]int{seq, m}]) {
				t.Fatalf("item %d model %d differs after recovery", seq, m)
			}
		}
	}
	tc.Begin(2)
	if err := tc.Commit(2, models, 100); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	again := mustOpen(t, tailPath, Options{})
	defer again.Close()
	if st := again.States(); !st[2].Committed {
		t.Fatal("the commit appended after recovery did not replay")
	}
}

// TestJournalV1IsReadThenCompacted opens a version-1 (gob) journal
// written by the previous format's encoder — three items, two outputs
// each, the first two committed — and checks that it replays with no
// inference, is compacted at once into a version-2 journal with no
// snapshot file beside it, and that appending and reopening then
// round-trips.
func TestJournalV1IsReadThenCompacted(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "journal_v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if v1[4] != 1 {
		t.Fatalf("fixture header version %d, want 1", v1[4])
	}
	path := tempJournal(t)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	models := []int{0, 6}
	want := make(map[[2]int]zoo.Output)
	for seq := 0; seq < 3; seq++ {
		for _, m := range models {
			want[[2]int{seq, m}] = z.Models[m].Infer(&ds.Scenes[seq])
		}
	}

	before := zoo.Inferences()
	c := mustOpen(t, path, Options{})
	check := func(c *Corpus, items int) {
		t.Helper()
		states := c.States()
		if len(states) != items {
			t.Fatalf("%d items, want %d", len(states), items)
		}
		for seq := 0; seq < 3; seq++ {
			st := states[seq]
			if st.Tag != "v1-item" || st.Committed != (seq < 2) {
				t.Fatalf("item %d: %+v", seq, st)
			}
			if st.Committed && (!reflect.DeepEqual(st.Executed, models) || st.ScheduleMS != 37.5+float64(seq)) {
				t.Fatalf("item %d commit: %+v", seq, st)
			}
			for _, m := range models {
				if got := c.Item(seq).Output(m); !reflect.DeepEqual(got, want[[2]int{seq, m}]) {
					t.Fatalf("item %d model %d differs from the v1 journal's output", seq, m)
				}
			}
		}
		if ran := zoo.Inferences() - before; ran != 0 {
			t.Fatalf("replay ran %d inferences; want 0", ran)
		}
	}
	check(c, 3)
	assertCompacted(t, c, path)
	if _, err := os.Stat(path + ".snap"); !os.IsNotExist(err) {
		t.Fatalf("compacting the v1 journal wrote a snapshot file: %v", err)
	}

	seq, err := c.AdmitWait(context.Background(), ds.Scenes[3], "v2-item")
	if err != nil {
		t.Fatal(err)
	}
	c.Begin(seq)
	out := c.Item(seq).Output(0)
	if err := c.Commit(seq, []int{0}, 12); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	before = zoo.Inferences()
	c2 := mustOpen(t, path, Options{})
	defer c2.Close()
	check(c2, 4)
	if st := c2.States()[3]; !st.Committed || st.Tag != "v2-item" || !reflect.DeepEqual(c2.Item(3).Output(0), out) {
		t.Fatalf("item admitted after the upgrade: %+v", st)
	}
}

// TestSnapshotV1IsReadThenCompacted opens a corpus written by the
// snapshot-blob layout: a version-1 gob snapshot of three committed,
// evicted items (models 0 and 6) beside a journal tail with one committed
// item (model 2) and one in flight (model 1). It replays with no
// inference and bit-identical outputs, is compacted at once into a
// version-2 journal, the snapshot file is deleted, and a reopen
// recovers the same corpus.
func TestSnapshotV1IsReadThenCompacted(t *testing.T) {
	path := tempJournal(t)
	for _, name := range []string{"corpus.wal", "corpus.wal.snap"} {
		data, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(path), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type item struct {
		tag        string
		committed  bool
		models     []int
		scheduleMS float64
	}
	items := []item{
		{"snap-item", true, []int{0, 6}, 20.5},
		{"snap-item", true, []int{0, 6}, 21.5},
		{"snap-item", true, []int{0, 6}, 22.5},
		{"tail-item", true, []int{2}, 12.25},
		{"in-flight", false, []int{1}, 0},
	}
	want := make(map[[2]int]zoo.Output)
	for seq, it := range items {
		for _, m := range it.models {
			want[[2]int{seq, m}] = z.Models[m].Infer(&ds.Scenes[seq])
		}
	}
	// check reads a corpus opened since before: no model may have run.
	var before int64
	check := func(c *Corpus) []ItemState {
		t.Helper()
		states := c.States()
		if len(states) != len(items) {
			t.Fatalf("%d items, want %d", len(states), len(items))
		}
		for seq, it := range items {
			st := states[seq]
			if st.Tag != it.tag || st.Committed != it.committed || st.MemoCount != len(it.models) {
				t.Fatalf("item %d: %+v", seq, st)
			}
			if it.committed && (!reflect.DeepEqual(st.Executed, it.models) || st.ScheduleMS != it.scheduleMS) {
				t.Fatalf("item %d commit: %+v", seq, st)
			}
			for _, m := range it.models {
				if got := c.Item(seq).Output(m); !reflect.DeepEqual(got, want[[2]int{seq, m}]) {
					t.Fatalf("item %d model %d differs from the legacy corpus's output", seq, m)
				}
			}
		}
		if ran := zoo.Inferences() - before; ran != 0 {
			t.Fatalf("replay ran %d inferences; want 0", ran)
		}
		return states
	}
	before = zoo.Inferences()
	c := mustOpen(t, path, Options{})
	first := check(c)
	assertCompacted(t, c, path)
	if _, err := os.Stat(path + ".snap"); !os.IsNotExist(err) {
		t.Fatalf("the legacy snapshot survives its compaction: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	before = zoo.Inferences()
	c2 := mustOpen(t, path, Options{})
	defer c2.Close()
	if again := check(c2); !reflect.DeepEqual(again, first) {
		t.Fatalf("reopen differs:\n got %+v\nwant %+v", again, first)
	}
}

// TestJournalAppendAllocatesNothing: framing and writing a record of any
// kind reuses the corpus's buffer.
func TestJournalAppendAllocatesNothing(t *testing.T) {
	c := mustOpen(t, tempJournal(t), Options{})
	defer c.Close()
	for name, recs := range seedRecords() {
		if len(recs) != 1 {
			continue
		}
		rec := &recs[0]
		c.mu.Lock()
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.writeRecord(rec); err != nil {
				t.Fatal(err)
			}
		})
		c.mu.Unlock()
		if allocs != 0 {
			t.Errorf("writeRecord(%s) allocates %.1f times per record; want 0", name, allocs)
		}
	}
}
