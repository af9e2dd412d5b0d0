package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

func sampleTentativeRecord() *wire.StableRecord {
	return &wire.StableRecord{
		Op:      wire.OpTentative,
		Proc:    3,
		Trigger: protocol.Trigger{Pid: 1, Inum: 4},
		At:      2500 * time.Millisecond,
		State: protocol.State{
			Proc:     3,
			CSN:      4,
			SentTo:   []uint64{1, 0, 7, 2},
			RecvFrom: []uint64{0, 3, 0, 9},
			At:       2 * time.Second,
		},
	}
}

func sampleSnapshotRecord() *wire.StableRecord {
	return &wire.StableRecord{
		Op:   wire.OpSnapshot,
		Proc: 0,
		Permanent: []wire.CheckpointImage{{
			State:   protocol.State{Proc: 0, SentTo: []uint64{0, 0}, RecvFrom: []uint64{0, 0}},
			Trigger: protocol.NoTrigger,
			Status:  2,
		}},
		Tentative: []wire.CheckpointImage{{
			State:   protocol.State{Proc: 0, CSN: 1, SentTo: []uint64{5, 0}, RecvFrom: []uint64{0, 1}},
			Trigger: protocol.Trigger{Pid: 0, Inum: 1},
			Status:  1,
			SavedAt: time.Second,
		}},
	}
}

// sampleOutcomesRecord is a compacted snapshot that carries the store's
// outcome summary, the one body written as version 2.
func sampleOutcomesRecord() *wire.StableRecord {
	rec := sampleSnapshotRecord()
	rec.Decided = 7
	rec.Aborted = []int{2, 5}
	return rec
}

// TestStableRecordVersions: a body without outcomes is version 1, one
// with them version 2, and both decode to the record that was encoded.
func TestStableRecordVersions(t *testing.T) {
	for _, tc := range []struct {
		rec     *wire.StableRecord
		version byte
	}{
		{sampleSnapshotRecord(), 1},
		{sampleOutcomesRecord(), 2},
		{&wire.StableRecord{Op: wire.OpSnapshot, Decided: 3}, 2},
	} {
		frame, err := wire.AppendStableRecord(nil, tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if v := bodyOf(frame)[0]; v != tc.version {
			t.Errorf("decided %d aborted %v: version %d, want %d", tc.rec.Decided, tc.rec.Aborted, v, tc.version)
		}
		got, _, err := wire.DecodeStableRecord(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, tc.rec)
		}
	}
	// A version-1 body ends after the images: outcome bytes there are
	// trailing garbage, not a summary.
	v1 := bodyOf(mustFrame(t, sampleSnapshotRecord()))
	if _, err := wire.ParseStableRecord(append(v1, 6, 0)); !errors.Is(err, wire.ErrCorruptRecord) {
		t.Fatalf("version-1 body with outcome bytes: err = %v, want ErrCorruptRecord", err)
	}
	// A hostile aborted count is refused before it sizes an allocation.
	v2 := bodyOf(mustFrame(t, &wire.StableRecord{Op: wire.OpSnapshot, Decided: 1}))
	if _, err := wire.ParseStableRecord(append(v2[:len(v2)-1], 0xFF, 0x7F)); !errors.Is(err, wire.ErrCorruptRecord) {
		t.Fatalf("hostile aborted count: err = %v, want ErrCorruptRecord", err)
	}
	// A version-2 body with no outcome in it would re-encode as version
	// 1, so no encoder wrote it.
	if _, err := wire.ParseStableRecord(append(withByte(v1, 0, 2), 0, 0)); !errors.Is(err, wire.ErrCorruptRecord) {
		t.Fatalf("version-2 body without outcomes: err = %v, want ErrCorruptRecord", err)
	}
}

func mustFrame(t *testing.T, rec *wire.StableRecord) []byte {
	t.Helper()
	frame, err := wire.AppendStableRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestStableRecordStream(t *testing.T) {
	var stream []byte
	var ends []int
	want := []wire.RecordOp{wire.OpSnapshot, wire.OpTentative, wire.OpCommit}
	for _, op := range want {
		rec := sampleTentativeRecord()
		rec.Op = op
		var err error
		if stream, err = wire.AppendStableRecord(stream, rec); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(stream))
	}
	buf := bytes.NewReader(stream)
	consumed := 0
	for i, op := range want {
		rec, n, err := wire.DecodeStableRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Op != op {
			t.Fatalf("record %d: op = %v, want %v", i, rec.Op, op)
		}
		if consumed += n; consumed != ends[i] {
			t.Fatalf("record %d: decoder consumed up to byte %d, the record ends at %d", i, consumed, ends[i])
		}
	}
	if _, _, err := wire.DecodeStableRecord(buf); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}
}

// TestStableRecordSmallestImages fills a snapshot with zero images, the
// fewest bytes an image can take: the decoder's bound on the image count
// (bytes left over the smallest image) must not refuse them.
func TestStableRecordSmallestImages(t *testing.T) {
	rec := &wire.StableRecord{Op: wire.OpSnapshot, Permanent: make([]wire.CheckpointImage, 50)}
	frame, err := wire.AppendStableRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := wire.DecodeStableRecord(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, rec)
	}
}

func TestStableRecordTornAndCorrupt(t *testing.T) {
	frame, err := wire.AppendStableRecord(nil, sampleTentativeRecord())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"torn-header", frame[:5], wire.ErrTornRecord},
		{"torn-body", frame[:len(frame)-3], wire.ErrTornRecord},
		{"flipped-body-byte", flip(frame, len(frame)-1), wire.ErrCorruptRecord},
		{"flipped-crc", flip(frame, 5), wire.ErrCorruptRecord},
		{"oversize-length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, wire.ErrCorruptRecord},
		{"garbage-fields", frameOf([]byte{1, 2, 3, 4}), wire.ErrCorruptRecord},
		{"empty-body", frameOf(nil), wire.ErrCorruptRecord},
		{"trailing-byte", frameOf(append(bodyOf(frame), 0)), wire.ErrCorruptRecord},
		{"op-0", frameOf(withByte(bodyOf(frame), 1, 0)), wire.ErrCorruptRecord},
		{"op-5", frameOf(withByte(bodyOf(frame), 1, 5)), wire.ErrCorruptRecord},
		{"hostile-image-count", frameOf(append(bodyOf(frame)[:len(bodyOf(frame))-2], 0xFF, 0x7F, 0)), wire.ErrCorruptRecord},
		{"unknown-version", frameOf(withByte(bodyOf(frame), 0, 0xFF)), wire.ErrFormatVersion},
	}
	for _, tc := range cases {
		_, _, err := wire.DecodeStableRecord(bytes.NewReader(tc.data))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// flip returns a copy of b with bit 0 of b[i] inverted.
func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}

// frameOf wraps a hand-made body in a valid length+CRC header: damage the
// checksum cannot catch must still be rejected by the body parser.
func frameOf(body []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(hdr[:], body...)
}

// bodyOf returns a copy of a record frame's body.
func bodyOf(frame []byte) []byte { return append([]byte(nil), frame[8:]...) }

// withByte returns b with b[i] replaced.
func withByte(b []byte, i int, v byte) []byte {
	b[i] = v
	return b
}
