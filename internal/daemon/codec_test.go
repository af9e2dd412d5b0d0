package daemon

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mutablecp/internal/wire"
)

// TestEnvelopeRoundTrip: random envelopes survive the fixed-layout
// codec byte-for-byte, one frame after another on the same stream.
func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream bytes.Buffer
	var want []envelope
	for i := 0; i < 200; i++ {
		e := envelope{
			Kind: 1 + rng.Intn(3),
			Src:  rng.Intn(64),
			Inc:  rng.Int63(),
			Gen:  rng.Uint64(),
			Seq:  rng.Uint64(),
			Cum:  rng.Uint64(),
		}
		if rng.Intn(2) == 0 {
			e.Body = make([]byte, rng.Intn(512))
			rng.Read(e.Body)
			if len(e.Body) == 0 {
				e.Body = nil
			}
		}
		want = append(want, e)
		if err := writeEnvelope(&stream, &e); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		var got envelope
		if err := readEnvelope(&stream, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, w)
		}
	}
	if err := readEnvelope(&stream, new(envelope)); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

// TestEnvelopeFrameBounds: a frame length below the fixed header or
// above MaxFrame is rejected before any allocation.
func TestEnvelopeFrameBounds(t *testing.T) {
	for _, n := range []uint32{0, envHeaderLen - 1, envHeaderLen + wire.MaxFrame + 1} {
		frame := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
		err := readEnvelope(bytes.NewReader(frame), new(envelope))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length %d: err = %v, want out-of-range", n, err)
		}
	}
}

// TestEnvelopeTruncated: a frame cut mid-fields or mid-body errors
// rather than returning a partial envelope.
func TestEnvelopeTruncated(t *testing.T) {
	full := appendEnvelope(nil, &envelope{Kind: envData, Src: 3, Body: []byte("abc")})
	for _, cut := range []int{5, 4 + envHeaderLen + 1} {
		if err := readEnvelope(bytes.NewReader(full[:cut]), new(envelope)); err == nil {
			t.Errorf("truncated at %d: decoded successfully, want error", cut)
		}
	}
}

// FuzzReadEnvelope feeds arbitrary bytes to the decoder that parses
// frames straight off a peer socket. It must never panic or over-read:
// every envelope it returns re-encodes to exactly the bytes it consumed,
// and io.EOF comes only at a frame boundary.
func FuzzReadEnvelope(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	for i := 0; i < 4; i++ {
		e := envelope{Kind: 1 + rng.Intn(3), Src: rng.Intn(64), Inc: rng.Int63(), Gen: rng.Uint64(), Seq: rng.Uint64(), Cum: rng.Uint64()}
		if i%2 == 0 {
			e.Body = make([]byte, 1+rng.Intn(64))
			rng.Read(e.Body)
		}
		frame := appendEnvelope(nil, &e)
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated mid-frame
		stream = append(stream, frame...)
	}
	f.Add(stream) // back-to-back frames
	f.Add([]byte{})
	hdr := func(n uint32) []byte { return []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)} }
	f.Add(hdr(envHeaderLen - 1))                                       // too short for the fields
	f.Add(hdr(envHeaderLen + wire.MaxFrame + 1))                       // over-length
	f.Add(append(hdr(envHeaderLen+wire.MaxFrame), make([]byte, 8)...)) // longest legal, cut short

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// Each frame consumes at least a header, so the loop is bounded.
		for i := 0; i <= len(data)/(4+envHeaderLen); i++ {
			before := len(data) - r.Len()
			var e envelope
			err := readEnvelope(r, &e)
			if err == io.EOF {
				if before != len(data) {
					t.Fatalf("io.EOF with %d bytes unread", len(data)-before)
				}
				return
			}
			if err != nil {
				return
			}
			consumed := data[before : len(data)-r.Len()]
			if again := appendEnvelope(nil, &e); !bytes.Equal(again, consumed) {
				t.Fatalf("envelope %+v re-encodes to %x, consumed %x", e, again, consumed)
			}
		}
	})
}
