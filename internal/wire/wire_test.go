package wire_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"mutablecp/internal/dyadic"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

func sampleMessage() *protocol.Message {
	return &protocol.Message{
		Kind:    protocol.KindRequest,
		From:    3,
		To:      7,
		Seq:     42,
		Size:    50,
		Payload: []byte("hello"),
		CSN:     9,
		Trigger: protocol.Trigger{Pid: 3, Inum: 9},
		ReqCSN:  4,
		MR: protocol.MRFromEntries([]protocol.MREntry{
			{CSN: 1, R: true}, {CSN: 0, R: false}, {CSN: 7, R: true},
		}),
		Weight: dyadic.Pow(5),
		Commit: true,
	}
}

// roundTrip encodes and decodes a message through memory.
func roundTrip(m *protocol.Message) (*protocol.Message, error) {
	frame, err := wire.AppendMessage(nil, m)
	if err != nil {
		return nil, err
	}
	return wire.DecodeMessage(frame)
}

func TestRoundTripAllFields(t *testing.T) {
	in := sampleMessage()
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.MR.Entries(), out.MR.Entries()) {
		t.Fatalf("MR mismatch: %+v vs %+v", in.MR.Entries(), out.MR.Entries())
	}
	if in.Weight != out.Weight {
		t.Fatalf("weight mismatch: %v vs %v", in.Weight, out.Weight)
	}
	in.MR, out.MR = protocol.MRVec{}, protocol.MRVec{}
	in.Weight, out.Weight = dyadic.Weight{}, dyadic.Weight{}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("message mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

// TestRoundTripEarlierTriggers: a computation message from a process
// inside two instances carries the earlier one, and a frame without any
// is byte for byte what it was before the field existed.
func TestRoundTripEarlierTriggers(t *testing.T) {
	in := &protocol.Message{
		Kind: protocol.KindComputation, From: 2, To: 4, Seq: 7, CSN: 3,
		Trigger: protocol.Trigger{Pid: 5, Inum: 3},
		Earlier: []protocol.Trigger{{Pid: 1, Inum: 2}, {Pid: 0, Inum: 1}},
	}
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("message mismatch:\n in=%+v\nout=%+v", in, out)
	}
	with, _ := wire.AppendMessage(nil, in)
	in.Earlier = nil
	without, _ := wire.AppendMessage(nil, in)
	if len(with) != len(without)+5 {
		t.Fatalf("two earlier triggers cost %d bytes, want 5", len(with)-len(without))
	}
}

func TestRoundTripZeroValues(t *testing.T) {
	in := &protocol.Message{Kind: protocol.KindComputation, Trigger: protocol.NoTrigger}
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != protocol.KindComputation || !out.Trigger.IsNone() {
		t.Fatalf("zero message mangled: %+v", out)
	}
	if !out.Weight.IsZero() {
		t.Fatalf("zero weight became %v", out.Weight)
	}
}

func TestWeightExactnessSurvivesWire(t *testing.T) {
	// A 2^-300 share must cross the wire exactly.
	w := dyadic.One()
	for i := 0; i < 300; i++ {
		w = w.Half()
	}
	in := &protocol.Message{Kind: protocol.KindReply, Weight: w}
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Weight != w {
		t.Fatalf("deep weight mangled: %v vs %v", out.Weight, w)
	}
}

func TestStreamOfMessages(t *testing.T) {
	var stream []byte
	const k = 50
	for i := 0; i < k; i++ {
		m := sampleMessage()
		m.Seq = uint64(i)
		var err error
		if stream, err = wire.AppendMessage(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewDecoder(bytes.NewReader(stream))
	for i := 0; i < k; i++ {
		m, err := dec.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("stream reordered: got seq %d at %d", m.Seq, i)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestDecodeTruncatedBody(t *testing.T) {
	frame, err := wire.AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	trunc := frame[:len(frame)-3]
	if _, err := wire.NewDecoder(bytes.NewReader(trunc)).Decode(); err == nil {
		t.Fatal("truncated frame accepted by the stream decoder")
	}
	if _, err := wire.DecodeMessage(trunc); err == nil {
		t.Fatal("truncated frame accepted by DecodeMessage")
	}
	if _, err := wire.DecodeMessage(append(frame, 0)); err == nil {
		t.Fatal("frame with a trailing byte accepted by DecodeMessage")
	}
}

// TestDecodeRejectsHostileBodies hands the decoder bodies no encoder
// writes. A message frame has no checksum, so the parser is the only
// thing between these and the engine.
func TestDecodeRejectsHostileBodies(t *testing.T) {
	for name, body := range map[string][]byte{
		"empty body":           {},
		"unknown flag bit":     {1, 0x80, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"payload past the end": {1, 0, 2, 0, 0, 0, 0, 100},
		"MR count past end":    {1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x3F},
		"MR flags missing":     {1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"short weight":         {1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		"weight exponent 2^32": {1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1},
	} {
		frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
		if m, err := wire.DecodeMessage(frame); err == nil {
			t.Errorf("%s: decoded to %+v", name, m)
		}
	}
	frame := []byte{0, 0, 0, 2, 0xFF, 0}
	if _, err := wire.DecodeMessage(frame); !errors.Is(err, wire.ErrFormatVersion) {
		t.Errorf("unknown version: got %v, want ErrFormatVersion", err)
	}
}

func TestDecodeOversizeFrameRejected(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := wire.NewDecoder(bytes.NewReader(hdr)).Decode(); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestPropWeightMarshalRoundTrip(t *testing.T) {
	f := func(zero bool, exp uint16) bool {
		w := dyadic.Pow(int(exp))
		if zero {
			w = dyadic.Zero()
		}
		var got dyadic.Weight
		if err := got.UnmarshalBinary(w.AppendBinary(nil)); err != nil {
			return false
		}
		return got == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMessageRoundTrip(t *testing.T) {
	f := func(kind uint8, from, to uint8, seq uint64, csn int32, payload []byte) bool {
		in := &protocol.Message{
			Kind:    protocol.Kind(kind%7) + 1,
			From:    int(from % 16),
			To:      int(to % 16),
			Seq:     seq,
			CSN:     int(csn),
			Payload: payload,
			Trigger: protocol.Trigger{Pid: int(from % 16), Inum: int(csn)},
		}
		out, err := roundTrip(in)
		if err != nil {
			return false
		}
		return out.Kind == in.Kind && out.From == in.From && out.To == in.To &&
			out.Seq == in.Seq && out.CSN == in.CSN && out.Trigger == in.Trigger &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
