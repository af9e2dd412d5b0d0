package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

func TestScheduleRecordRoundTrip(t *testing.T) {
	recs := []*ScheduleRecord{
		{Name: "race", Mutant: "skip-mutable", N: 3, Seed: 42, Choices: []int{0, 1, 0, 2, 1}},
		{Name: "", Mutant: "", N: 0, Seed: 0, Choices: nil},
		{Name: "burst", Mutant: "skip-sent-gate", N: maxScheduleChoice, Seed: 1 << 60, Choices: []int{maxScheduleChoice}},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		if _, err := EncodeScheduleRecord(&buf, r); err != nil {
			t.Fatalf("encode %+v: %v", r, err)
		}
	}
	rd := bytes.NewReader(buf.Bytes())
	for i, want := range recs {
		got, _, err := DecodeScheduleRecord(rd)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Name != want.Name || got.Mutant != want.Mutant || got.N != want.N || got.Seed != want.Seed {
			t.Fatalf("decode %d: got %+v want %+v", i, got, want)
		}
		if len(got.Choices) != len(want.Choices) {
			t.Fatalf("decode %d: choices %v want %v", i, got.Choices, want.Choices)
		}
		for j := range want.Choices {
			if got.Choices[j] != want.Choices[j] {
				t.Fatalf("decode %d: choices %v want %v", i, got.Choices, want.Choices)
			}
		}
	}
	if _, _, err := DecodeScheduleRecord(rd); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// TestScheduleRecordVersion1 decodes a version-1 body, whose numeric
// mutation names a mutant through the version-1 table and which records
// no N.
func TestScheduleRecordVersion1(t *testing.T) {
	body := []byte{scheduleVersion1, 4, 'r', 'a', 'c', 'e', 2 /* mutation */, 7 /* seed */, 2, 1, 0}
	rec, _, err := DecodeScheduleRecord(bytes.NewReader(frameBody(body)))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "race" || rec.Mutant != "skip-mutable" || rec.N != 0 || rec.Seed != 7 ||
		len(rec.Choices) != 2 || rec.Choices[0] != 1 || rec.Choices[1] != 0 {
		t.Fatalf("decoded %+v", rec)
	}
}

func TestScheduleRecordRejectsBadInput(t *testing.T) {
	if _, err := AppendScheduleRecord(nil, &ScheduleRecord{Choices: []int{-1}}); err == nil {
		t.Fatal("negative choice encoded")
	}
	if _, err := AppendScheduleRecord(nil, &ScheduleRecord{Choices: []int{maxScheduleChoice + 1}}); err == nil {
		t.Fatal("oversized choice encoded")
	}
	if _, err := AppendScheduleRecord(nil, &ScheduleRecord{Name: string(make([]byte, maxScheduleName+1))}); err == nil {
		t.Fatal("oversized name encoded")
	}
	if _, err := AppendScheduleRecord(nil, &ScheduleRecord{Mutant: string(make([]byte, maxScheduleName+1))}); err == nil {
		t.Fatal("oversized mutant name encoded")
	}
	for _, n := range []int{-1, maxScheduleChoice + 1} {
		if _, err := AppendScheduleRecord(nil, &ScheduleRecord{N: n}); err == nil {
			t.Fatalf("n %d encoded", n)
		}
	}
}

func TestScheduleRecordTornAndCorrupt(t *testing.T) {
	frame, err := AppendScheduleRecord(nil, &ScheduleRecord{Name: "race", Choices: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Torn at every prefix short of the full frame.
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := DecodeScheduleRecord(bytes.NewReader(frame[:cut]))
		if !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut %d: got %v, want ErrTornRecord", cut, err)
		}
	}
	// Flip each body byte: the CRC must catch it.
	for i := frameHeaderLen; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		_, _, err := DecodeScheduleRecord(bytes.NewReader(bad))
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("flip %d: got %v, want ErrCorruptRecord", i, err)
		}
	}
	// A hostile choice count larger than the remaining body, behind a
	// valid CRC: the decoder must reject it before allocating.
	body := []byte{scheduleVersion, 0 /* name len */, 0 /* mutant len */, 0 /* n */, 0 /* seed */, 200 /* count */}
	_, _, err = DecodeScheduleRecord(bytes.NewReader(frameBody(body)))
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("hostile count: got %v, want ErrCorruptRecord", err)
	}
	// A version from the future must be refused, not misparsed.
	_, _, err = DecodeScheduleRecord(bytes.NewReader(frameBody([]byte{99, 0, 0, 0, 0})))
	if !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("future version: got %v, want ErrFormatVersion", err)
	}
	// Out-of-range fields behind a valid CRC.
	for name, body := range map[string][]byte{
		"v1 mutation 4":   {scheduleVersion1, 0, 4, 0, 0},
		"v1 mutation 256": {scheduleVersion1, 0, 0x80, 0x02, 0, 0},
		"v1 trailing":     {scheduleVersion1, 0, 0, 0, 0, 0},
		"n 2^20+1":        {scheduleVersion, 0, 0, 0x81, 0x80, 0x40, 0, 0},
		"choice 2^20+1":   {scheduleVersion, 0, 0, 0, 0, 1, 0x81, 0x80, 0x40},
		"name too long":   append([]byte{scheduleVersion, 0x81, 0x08}, make([]byte, maxScheduleName+4)...),
		"mutant too long": append([]byte{scheduleVersion, 0, 0x81, 0x08}, make([]byte, maxScheduleName+4)...),
		"trailing bytes":  {scheduleVersion, 0, 0, 0, 0, 0, 0},
	} {
		if _, _, err := DecodeScheduleRecord(bytes.NewReader(frameBody(body))); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("%s: got %v, want ErrCorruptRecord", name, err)
		}
	}
}

// frameBody wraps a raw body in a valid length+CRC header.
func frameBody(body []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	return append(hdr[:], body...)
}
