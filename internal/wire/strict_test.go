package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mutablecp/internal/wire"
)

// overlong returns a copy of body with the one-byte varint at i written
// in two bytes: the same value, not in its shortest form.
func overlong(t *testing.T, body []byte, i int) []byte {
	t.Helper()
	if body[i] >= 0x80 {
		t.Fatalf("byte %d of %x is not a one-byte varint", i, body)
	}
	out := append([]byte(nil), body[:i]...)
	out = append(out, body[i]|0x80, 0)
	return append(out, body[i+1:]...)
}

// TestDecodersTakeOnlyTheShortestVarint: every decoder refuses a body
// in which one varint field is longer than its shortest form, so a body
// decodes only from the bytes its encoder writes. Each row first checks
// that the frame it damages decodes, so the longer varint is the only
// fault.
func TestDecodersTakeOnlyTheShortestVarint(t *testing.T) {
	must := func(frame []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	messageFrame := func(body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	decodeMessage := func(frame []byte) error { _, err := wire.DecodeMessage(frame); return err }
	decodeStable := func(frame []byte) error {
		_, _, err := wire.DecodeStableRecord(bytes.NewReader(frame))
		return err
	}
	decodeChunk := func(frame []byte) error {
		_, _, err := wire.DecodeChunkRecord(bytes.NewReader(frame))
		return err
	}
	decodeSchedule := func(frame []byte) error {
		_, _, err := wire.DecodeScheduleRecord(bytes.NewReader(frame))
		return err
	}
	for _, row := range []struct {
		name   string
		frame  []byte
		header int // bytes before the body
		at     int // body offset of a one-byte varint
		reseal func(body []byte) []byte
		decode func(frame []byte) error
	}{
		{"message Kind", must(wire.AppendMessage(nil, sampleMessage())), 4, 2, messageFrame, decodeMessage},
		{"stable record Proc", must(wire.AppendStableRecord(nil, sampleTentativeRecord())), 8, 2, frameOf, decodeStable},
		{"chunk record Proc", must(wire.AppendChunkRecord(nil, chunkCorpusRecords()[3])), 8, 2, frameOf, decodeChunk},
		{"schedule record name length", must(wire.AppendScheduleRecord(nil, &wire.ScheduleRecord{
			Name: "race", N: 3, Seed: 7, Choices: []int{1, 0, 2},
		})), 8, 1, frameOf, decodeSchedule},
	} {
		if err := row.decode(row.frame); err != nil {
			t.Fatalf("%s: the undamaged frame fails: %v", row.name, err)
		}
		frame := row.reseal(overlong(t, row.frame[row.header:], row.at))
		if err := row.decode(frame); !errors.Is(err, wire.ErrCorruptRecord) {
			t.Errorf("%s written in two bytes: err = %v, want ErrCorruptRecord", row.name, err)
		}
	}
}

// TestMessageDecoderRefusesUnwrittenForms: the two message encodings
// AppendMessage never writes beside an overlong varint are refused too:
// a set padding bit after the last R flag of the MR vector, and a zero
// weight in the four bytes dyadic.Weight.AppendBinary gives it.
func TestMessageDecoderRefusesUnwrittenForms(t *testing.T) {
	frame, err := wire.AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	// sampleMessage ends in its three R flags (one byte, 0b101) and a
	// five-byte weight.
	const flags = 5 + 1
	if got := frame[len(frame)-flags]; got != 0b101 {
		t.Fatalf("R flags byte %#x, want 0b101", got)
	}
	padding := append([]byte(nil), frame...)
	padding[len(padding)-flags] |= 0x80
	zero := append(append([]byte(nil), frame[:len(frame)-5]...), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(zero, uint32(len(zero)-4))
	for name, frame := range map[string][]byte{"padding bit": padding, "four-byte zero weight": zero} {
		if _, err := wire.DecodeMessage(frame); !errors.Is(err, wire.ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
	}
}
