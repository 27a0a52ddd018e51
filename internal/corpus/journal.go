package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// The journal's wire format: a 5-byte magic+version header followed by
// framed records, in the manner of the LevelDB/RocksDB log format:
//
//	frame = uvarint(len(body)) | body | CRC-32C(body), little-endian
//	body  = kind byte | uvarint(Seq) | the kind's fields
//
// An admit carries the tag (uvarint length + bytes) and the scene's
// fields in declaration order: ints as zigzag varints, the seed as a
// uvarint, Indoor as one byte, each label slice as a uvarint count plus
// varints. An output carries the model, a uvarint label count and each
// label as a varint ID plus Float64bits(Conf); a commit carries the
// executed models (count plus varints) and Float64bits(ScheduleMS).
// Every integer is minimally encoded and the decoder accepts nothing
// else, so a record decodes only from the exact bytes it encodes to.
//
// A record is written with one write(2), so a process crash leaves at
// most a prefix of the last frame. Replay therefore treats as a torn
// tail — truncated, and appended over — an incomplete final frame, a
// final frame that fails its checksum or decode, and an all-zero
// remainder (a file extended but never written). A complete frame that
// fails its checksum or decode with further bytes after it, or a length
// prefix no writer emits, is not a torn write: replay stops with
// ErrCorrupt rather than guess which of the records that follow are
// sound.
//
// Version 1 journals framed gob-encoded records. They are still read
// (parseJournalV1, in legacy.go); Open replays one and compacts it into
// a version-2 journal at once, so every record appended is version 2.
// There is no headerless form: a missing or unknown header fails loudly.
var journalMagic = [4]byte{'A', 'M', 'S', 'J'}

const (
	journalVersion = 2
	headerLen      = 5 // magic + version byte
	crcLen         = 4

	// maxRecordLen bounds a single record's declared size, so a corrupt
	// length prefix cannot ask the reader to allocate gigabytes.
	maxRecordLen = 64 << 20
)

// ErrCorrupt reports a journal record that fails its checksum or decode
// before the journal's tail: damage a crash mid-write cannot explain.
var ErrCorrupt = errors.New("corpus: journal corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds: the three events of an item's durable lifecycle.
const (
	kindAdmit  = 1 // an item entered the corpus (scene + tag)
	kindOutput = 2 // one (item, model) output was memoized
	kindCommit = 3 // the item's schedule completed (result finalized)
)

// record is the tagged union all three journal events share. Only the
// fields of the record's Kind are meaningful. The field names are the
// version-1 gob wire names.
type record struct {
	Kind int
	Seq  int // corpus sequence number of the item the event belongs to

	// kindAdmit
	Tag   string
	Scene synth.Scene

	// kindOutput
	Model int
	Out   zoo.Output

	// kindCommit
	Executed   []int
	ScheduleMS float64
}

// appendRecord appends rec's frame to dst. With enough capacity in dst
// it allocates nothing.
func appendRecord(dst []byte, rec *record) []byte {
	start := len(dst)
	dst = append(dst, 0) // length placeholder: one byte covers bodies under 128 B
	dst = appendBody(dst, rec)
	body := len(dst) - start - 1
	if n := uvarintLen(uint64(body)); n > 1 {
		dst = append(dst, make([]byte, n-1)...)
		copy(dst[start+n:], dst[start+1:start+1+body])
	}
	binary.PutUvarint(dst[start:], uint64(body))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[len(dst)-body:], castagnoli))
}

func appendBody(b []byte, rec *record) []byte {
	b = append(b, byte(rec.Kind))
	b = binary.AppendUvarint(b, uint64(rec.Seq))
	switch rec.Kind {
	case kindAdmit:
		b = appendAdmit(b, rec.Tag, &rec.Scene)
	case kindOutput:
		b = binary.AppendVarint(b, int64(rec.Model))
		b = binary.AppendUvarint(b, uint64(len(rec.Out.Labels)))
		for _, lc := range rec.Out.Labels {
			b = binary.AppendVarint(b, int64(lc.ID))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lc.Conf))
		}
	case kindCommit:
		b = appendInts(b, rec.Executed)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.ScheduleMS))
	}
	return b
}

// appendAdmit appends an admit record's fields after its sequence: the
// tag, then the scene. These bytes are also an item's identity in the
// corpus (Corpus.ids), so identity is exactly what the journal records.
func appendAdmit(b []byte, tag string, s *synth.Scene) []byte {
	b = binary.AppendUvarint(b, uint64(len(tag)))
	b = append(b, tag...)
	b = binary.AppendVarint(b, int64(s.ID))
	b = binary.AppendUvarint(b, s.Seed)
	b = binary.AppendVarint(b, int64(s.Place))
	if s.Indoor {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendInts(b, s.Objects)
	for _, v := range [...]int{s.Persons, s.Faces, s.Emotion, s.Gender, s.Action} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = appendInts(b, s.PoseKP)
	b = appendInts(b, s.HandKP)
	return binary.AppendVarint(b, int64(s.Dog))
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// parseJournal decodes the records of a version-2 journal image
// (everything after the header). It returns the sound records and the
// offset just past the last of them, relative to the start of data; the
// caller truncates a torn tail there and appends over it. Damage before
// the tail returns the records before it and an ErrCorrupt.
func parseJournal(data []byte) (recs []record, goodOffset int, err error) {
	off := 0
	for off < len(data) {
		length, n := binary.Uvarint(data[off:])
		if n == 0 {
			break // the length prefix itself is torn
		}
		if n < 0 || !minimal(data[off:off+n]) || length > maxRecordLen {
			if allZero(data[off:]) {
				break
			}
			return recs, off, fmt.Errorf("%w: bad length prefix at byte %d", ErrCorrupt, off)
		}
		end := off + n + int(length) + crcLen
		if end > len(data) {
			break // incomplete final frame
		}
		body := data[off+n : end-crcLen]
		var rec record
		ok := binary.LittleEndian.Uint32(data[end-crcLen:]) == crc32.Checksum(body, castagnoli) &&
			decodeBody(body, &rec)
		if !ok {
			if end == len(data) || allZero(data[off:]) {
				break // torn final frame
			}
			return recs, off, fmt.Errorf("%w: record at byte %d fails its checksum or decode and %d bytes follow it",
				ErrCorrupt, off, len(data)-end)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, off, nil
}

// decodeBody fills rec from a record body, accepting exactly the bytes
// appendBody produces.
func decodeBody(body []byte, rec *record) bool {
	r := bodyReader{b: body}
	rec.Kind = int(r.byte())
	rec.Seq = r.count(math.MaxInt)
	switch rec.Kind {
	case kindAdmit:
		rec.Tag = string(r.take(r.count(len(body))))
		s := &rec.Scene
		s.ID = r.varint()
		s.Seed = r.uvarint()
		s.Place = r.varint()
		switch r.byte() {
		case 0:
		case 1:
			s.Indoor = true
		default:
			r.bad = true
		}
		s.Objects = r.ints()
		for _, p := range [...]*int{&s.Persons, &s.Faces, &s.Emotion, &s.Gender, &s.Action} {
			*p = r.varint()
		}
		s.PoseKP = r.ints()
		s.HandKP = r.ints()
		s.Dog = r.varint()
	case kindOutput:
		rec.Model = r.varint()
		// A label takes at least 9 bytes: a varint ID and 8 of Conf.
		if n := r.count((len(body) - r.off) / 9); n > 0 {
			rec.Out.Labels = make([]zoo.LabelConf, n)
			for i := range rec.Out.Labels {
				rec.Out.Labels[i] = zoo.LabelConf{ID: r.varint(), Conf: r.float()}
			}
		}
	case kindCommit:
		rec.Executed = r.ints()
		rec.ScheduleMS = r.float()
	default:
		return false
	}
	return !r.bad && r.off == len(body)
}

// bodyReader walks a record body. The first malformed field sets bad,
// after which every read returns zero.
type bodyReader struct {
	b   []byte
	off int
	bad bool
}

func (r *bodyReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *bodyReader) take(n int) []byte {
	if r.bad || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *bodyReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || !minimal(r.b[r.off:r.off+n]) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *bodyReader) varint() int {
	u := r.uvarint()
	return int(int64(u>>1) ^ -int64(u&1)) // zigzag, as binary.Varint
}

// count reads a uvarint length no larger than limit.
func (r *bodyReader) count(limit int) int {
	v := r.uvarint()
	if v > uint64(limit) {
		r.bad = true
		return 0
	}
	return int(v)
}

// ints reads a count-prefixed varint slice; an empty one is nil.
func (r *bodyReader) ints() []int {
	n := r.count(len(r.b) - r.off)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.varint()
	}
	return vs
}

func (r *bodyReader) float() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// minimal reports whether a uvarint's bytes are its shortest encoding.
func minimal(v []byte) bool { return len(v) == 1 || v[len(v)-1] != 0 }

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// readJournal validates a journal image's header and decodes its
// records with the decoder of its version. goodOffset is relative to
// the start of data, header included.
func readJournal(data []byte, what string) (recs []record, goodOffset int, version byte, err error) {
	if err := checkHeader(data, journalMagic, journalVersion, what); err != nil {
		return nil, 0, 0, err
	}
	switch version = data[4]; version {
	case 1:
		recs, goodOffset = parseJournalV1(data[headerLen:])
	case journalVersion:
		recs, goodOffset, err = parseJournal(data[headerLen:])
		if err != nil {
			err = fmt.Errorf("%w (%s)", err, what)
		}
	default:
		return nil, 0, 0, fmt.Errorf("corpus: %s has unknown format version %d", what, version)
	}
	return recs, headerLen + goodOffset, version, err
}

// checkHeader validates a journal or legacy snapshot header, distinguishing
// "not this format at all" from "a future version of it".
func checkHeader(data []byte, magic [4]byte, version byte, what string) error {
	if len(data) < headerLen || !bytes.Equal(data[:4], magic[:]) {
		return fmt.Errorf("corpus: %s has no %s header (not a corpus file, or written before versioning)", what, string(magic[:]))
	}
	if data[4] > version {
		return fmt.Errorf("corpus: %s format version %d is newer than this build supports (%d)",
			what, data[4], version)
	}
	return nil
}

// header renders a magic+version header.
func header(magic [4]byte, version byte) []byte {
	return append(magic[:len(magic):len(magic)], version)
}
