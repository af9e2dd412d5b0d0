package wire_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mutablecp/internal/dyadic"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// FuzzDecode feeds arbitrary byte streams to the frame decoder. Its body
// decoder is the one the daemon runs on every peer frame, so it must
// reject garbage with an error — never a panic, never an unbounded
// allocation. Every message that
// does decode is pushed through the two operations the engines perform on
// it: accumulating its weight (a crafted exponent must not grow the
// counter past dyadic.MaxExp) and re-encoding (forwarded triggers and
// weights must survive another hop).
//
// Seed corpus lives in testdata/fuzz/FuzzDecode; regenerate it with
//
//	WIRE_GEN_CORPUS=1 go test -run TestGenerateFuzzCorpus ./internal/wire/
func FuzzDecode(f *testing.F) {
	// Valid frames, single and back-to-back, plus structured garbage.
	frame, err := wire.AppendMessage(nil, sampleMessage())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(append(append([]byte(nil), frame...), frame...)) // two-frame stream
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4}) // right version, garbage fields
	f.Add([]byte{0, 0, 0, 2, 0xFF, 0})    // unknown version
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	f.Add(frame[:len(frame)/2])           // torn frame
	earlier, err := wire.AppendMessage(nil, &protocol.Message{
		Kind: protocol.KindComputation, From: 2, To: 4, CSN: 3,
		Trigger: protocol.Trigger{Pid: 5, Inum: 3},
		Earlier: []protocol.Trigger{{Pid: 1, Inum: 2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(earlier) // a sender inside two instances

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder(bytes.NewReader(data))
		// A stream holds at most len/5 frames (4-byte header + 1 byte), so
		// the loop terminates; cap it anyway against decoder bugs.
		for i, off := 0, 0; i < len(data)/5+1; i++ {
			m, err := dec.Decode()
			if err != nil {
				return
			}
			n := 4 + int(binary.BigEndian.Uint32(data[off:]))
			exerciseDecoded(t, m, data[off:off+n])
			off += n
		}
		if _, err := dec.Decode(); err == nil {
			t.Fatalf("decoded more frames than the input can hold (%d bytes)", len(data))
		}
	})
}

// exerciseDecoded runs a message decoded from frame through the hot
// paths that consume attacker-influenced fields.
func exerciseDecoded(t *testing.T, m *protocol.Message, frame []byte) {
	t.Helper()
	var sum dyadic.Sum
	sum.Add(m.Weight)
	sum.Add(m.Weight)
	switch {
	case m.Weight.IsZero():
		if !sum.IsZero() {
			t.Fatalf("0 + 0 = %v", &sum)
		}
	case m.Weight.IsOne():
		if !sum.Over() {
			t.Fatalf("1 + 1 = %v is not over 1", &sum)
		}
	default:
		if want := dyadic.Pow(m.Weight.Exp() - 1).String(); sum.String() != want {
			t.Fatalf("%v + %v = %v, want %s", m.Weight, m.Weight, &sum, want)
		}
	}
	// The decoder takes only the encoding AppendMessage writes, so a
	// forwarded message goes out as the bytes it came in as.
	again, err := wire.AppendMessage(nil, m)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("%+v re-encodes to %x (%v), decoded from %x", messageView(m), again, err, frame)
	}
}

// TestGenerateFuzzCorpus regenerates the committed seed corpus. Skipped
// unless WIRE_GEN_CORPUS=1 so normal runs never rewrite testdata.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") == "" {
		t.Skip("corpus generator; set WIRE_GEN_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	deep := dyadic.One()
	for i := 0; i < 200; i++ {
		deep = deep.Half()
	}
	msgs := map[string]*protocol.Message{
		"request": sampleMessage(),
		"computation": {
			Kind: protocol.KindComputation, From: 1, To: 2, Seq: 7,
			Payload: []byte("data"), CSN: 3,
		},
		"reply-deep-weight": {
			Kind: protocol.KindReply, From: 2, To: 0,
			Trigger: protocol.Trigger{Pid: 0, Inum: 5},
			Weight:  deep, Commit: true,
		},
		"abort": {
			Kind: protocol.KindAbort, From: 0, To: 3,
			Trigger: protocol.Trigger{Pid: 0, Inum: 5},
		},
	}
	write := func(name string, raw []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range msgs {
		frame, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		write("valid-"+name, frame)
	}
	// A frame that smuggles a weight with a giant exponent: the dyadic
	// bound must reject it at decode time. sampleMessage carries weight
	// 2^-5, the frame's last five bytes: exponent {0,0,0,5}, numerator {1}.
	raw, err := wire.AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(raw, []byte{0, 0, 0, 5, 1}) {
		t.Fatalf("sample frame does not end in its weight: %x", raw)
	}
	mut := append([]byte(nil), raw...)
	copy(mut[len(mut)-5:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	write("garbage-weight-exp", mut)
	write("weight-numerator-3", nonUnitWeightFrame(t))
	write("torn-frame", raw[:len(raw)/2])
	write("garbage-fields", []byte{0, 0, 0, 4, 1, 2, 3, 4})
	write("unknown-version", []byte{0, 0, 0, 2, 0xFF, 0})
	write("oversize-header", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
}

// nonUnitWeightFrame is sampleMessage's frame with the weight's numerator
// byte set to 3: the value 3/2^5, which no engine can send, since every
// weight is a halving of 1.
func nonUnitWeightFrame(t *testing.T) []byte {
	t.Helper()
	raw, err := wire.AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] = 3
	return raw
}

// TestDecodeRejectsNonUnitNumerator: a weight whose numerator is not 1
// is not a power of two, and the frame carrying it is a decode error. The
// committed corpus entry weight-numerator-3 holds the same bytes.
func TestDecodeRejectsNonUnitNumerator(t *testing.T) {
	frame := nonUnitWeightFrame(t)
	if m, err := wire.DecodeMessage(frame); err == nil {
		t.Fatalf("numerator 3 decoded as weight %v", m.Weight)
	}
	corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", "weight-numerator-3"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame); string(corpus) != want {
		t.Fatalf("corpus entry weight-numerator-3 is not the numerator-3 frame:\n%s", corpus)
	}
}
