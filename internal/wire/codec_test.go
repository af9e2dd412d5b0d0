package wire_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mutablecp/internal/dyadic"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// messageView is a message in a form reflect.DeepEqual can compare: the
// MR vector as its entries (nil when absent, empty when present with no
// entries) and the weight as its normalized string, because both have
// several in-memory representations of one value.
func messageView(m *protocol.Message) any {
	c := *m
	c.MR, c.Weight = protocol.MRVec{}, dyadic.Weight{}
	if len(c.Payload) == 0 {
		c.Payload = nil
	}
	return struct {
		Message protocol.Message
		MR      []protocol.MREntry
		Weight  string
	}{c, m.MR.Entries(), m.Weight.String()}
}

func randTrigger(rng *rand.Rand) protocol.Trigger {
	if rng.Intn(4) == 0 {
		return protocol.NoTrigger
	}
	return protocol.Trigger{Pid: rng.Intn(32), Inum: rng.Intn(1000)}
}

func randBytes(rng *rand.Rand, max int) []byte {
	n := rng.Intn(max + 1)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randMessage(rng *rand.Rand) *protocol.Message {
	m := &protocol.Message{
		Kind: protocol.Kind(1 + rng.Intn(7)), From: rng.Intn(40), To: rng.Intn(41) - 1,
		Seq: rng.Uint64() >> uint(rng.Intn(64)), Size: rng.Intn(1 << 20),
		Payload: randBytes(rng, 64),
		CSN:     rng.Intn(1000), Trigger: randTrigger(rng), ReqCSN: rng.Intn(1000),
		Commit: rng.Intn(2) == 0,
	}
	if rng.Intn(3) > 0 {
		// Lengths on both sides of 64 reach both bitset representations;
		// length 0 is a present, empty vector.
		n := rng.Intn(100)
		mr := protocol.NewMRBuilder(n)
		for k := 0; k < n; k++ {
			if rng.Intn(3) == 0 {
				mr.SetCSN(k, rng.Intn(2000)-100)
			}
			if rng.Intn(3) == 0 {
				mr.SetFlag(k)
			}
		}
		m.MR = mr.Freeze()
	}
	if rng.Intn(2) == 1 { // a share deep in a halving chain
		m.Weight = dyadic.One()
		for i := rng.Intn(400); i > 0; i-- {
			m.Weight = m.Weight.Half()
		}
	}
	return m
}

// randCounters returns a possibly truncated counter vector.
func randCounters(rng *rand.Rand) []uint64 {
	n := rng.Intn(9)
	if n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	return v
}

func randState(rng *rand.Rand, proc int) protocol.State {
	return protocol.State{
		Proc: proc, CSN: rng.Intn(50),
		SentTo: randCounters(rng), RecvFrom: randCounters(rng),
		At: time.Duration(rng.Int63n(1e12)),
	}
}

func randImages(rng *rand.Rand, proc, n int, status uint8) []wire.CheckpointImage {
	if n == 0 {
		return nil
	}
	imgs := make([]wire.CheckpointImage, n)
	for i := range imgs {
		imgs[i] = wire.CheckpointImage{
			State: randState(rng, proc), Trigger: randTrigger(rng),
			Status: status, SavedAt: time.Duration(rng.Int63n(1e12)),
		}
	}
	return imgs
}

func randStableRecord(rng *rand.Rand, op wire.RecordOp) *wire.StableRecord {
	r := &wire.StableRecord{Op: op, Proc: rng.Intn(32)}
	switch op {
	case wire.OpSnapshot:
		r.Permanent = randImages(rng, r.Proc, 1+rng.Intn(4), 2)
		r.Tentative = randImages(rng, r.Proc, rng.Intn(4), 1)
	case wire.OpTentative:
		r.Trigger, r.At, r.State = randTrigger(rng), time.Duration(rng.Int63n(1e12)), randState(rng, r.Proc)
	case wire.OpCommit:
		r.Trigger, r.At = randTrigger(rng), time.Duration(rng.Int63n(1e12))
	case wire.OpDrop:
		r.Trigger = randTrigger(rng)
	}
	return r
}

func randHash(rng *rand.Rand) (h wire.ChunkHash) {
	rng.Read(h[:])
	return h
}

func randChunkRecord(rng *rand.Rand, op wire.ChunkOp) *wire.ChunkRecord {
	r := &wire.ChunkRecord{Op: op}
	switch op {
	case wire.ChunkOpReset:
		r.Length = 1 + rng.Int63n(1000)
	case wire.ChunkOpPut, wire.ChunkOpDelta:
		r.Proc, r.Hash, r.Payload = rng.Intn(32), randHash(rng), randBytes(rng, 256)
		if op == wire.ChunkOpDelta {
			r.Base = randHash(rng)
		}
	case wire.ChunkOpManifest:
		r.Proc, r.Trigger, r.At = rng.Intn(32), randTrigger(rng), time.Duration(rng.Int63n(1e12))
		r.Status = uint8(1 + rng.Intn(2))
		r.ChunkBytes = 1 << (8 + rng.Intn(6))
		r.Length = rng.Int63n(1 << 20)
		for i := rng.Intn(8); i > 0; i-- {
			r.Hashes = append(r.Hashes, randHash(rng))
		}
	case wire.ChunkOpCommit, wire.ChunkOpDrop:
		r.Proc, r.Trigger, r.At = rng.Intn(32), randTrigger(rng), time.Duration(rng.Int63n(1e12))
	}
	return r
}

// flipBit returns a copy of b with one bit inverted.
func flipBit(b []byte, bit int) []byte {
	out := append([]byte(nil), b...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// checkRecord holds one record to the properties every record type
// shares: it encodes to the same frame every time; the frame decodes to
// the value it was made from, consuming all of it; every strict prefix
// is a torn record (nothing at all is a clean end); and no single
// flipped bit decodes.
func checkRecord(t *testing.T, want any, encode func() ([]byte, error), decode func(io.Reader) (any, int, error)) {
	t.Helper()
	frame, err := encode()
	if err != nil {
		t.Fatalf("%+v: encode: %v", want, err)
	}
	if again, _ := encode(); !bytes.Equal(again, frame) {
		t.Fatalf("%+v encoded to different bytes the second time", want)
	}
	got, n, err := decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("%+v: decode: %v", want, err)
	}
	if n != len(frame) {
		t.Fatalf("%+v: decode consumed %d of %d bytes", want, n, len(frame))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, want)
	}
	if _, _, err := decode(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, _, err := decode(bytes.NewReader(frame[:cut])); !errors.Is(err, wire.ErrTornRecord) {
			t.Fatalf("%+v: prefix of %d bytes: got %v, want ErrTornRecord", want, cut, err)
		}
	}
	for bit := 0; bit < 8*len(frame); bit++ {
		if got, _, err := decode(bytes.NewReader(flipBit(frame, bit))); err == nil {
			t.Fatalf("%+v: bit %d flipped and the frame still decoded, to %+v", want, bit, got)
		}
	}
}

// TestCodecProperties is the one property test of the one codec, over
// seeded random values of the three types it carries.
func TestCodecProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	messages, records := 100, 192
	if testing.Short() {
		messages, records = 25, 48 // the bit-flip sweeps are slow under -race
	}
	for i := 0; i < messages; i++ {
		m := randMessage(rng)
		frame, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := wire.AppendMessage(nil, m); !bytes.Equal(again, frame) {
			t.Fatalf("%+v encoded to different bytes the second time", m)
		}
		for _, decode := range []func([]byte) (*protocol.Message, error){
			wire.DecodeMessage,
			func(b []byte) (*protocol.Message, error) { return wire.NewDecoder(bytes.NewReader(b)).Decode() },
		} {
			got, err := decode(frame)
			if err != nil {
				t.Fatalf("%+v: decode: %v", m, err)
			}
			if !reflect.DeepEqual(messageView(got), messageView(m)) {
				t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", messageView(got), messageView(m))
			}
			for cut := 1; cut < len(frame); cut++ {
				if _, err := decode(frame[:cut]); err == nil || err == io.EOF {
					t.Fatalf("%+v: prefix of %d bytes: got %v, want an error", m, cut, err)
				}
			}
		}
		// A message frame has no checksum (TCP's covers it), so a flipped
		// bit may decode, to another message; it must not panic.
		for bit := 0; bit < 8*len(frame); bit++ {
			flipped := flipBit(frame, bit)
			if got, err := wire.DecodeMessage(flipped); err == nil {
				exerciseDecoded(t, got, flipped)
			}
		}
	}
	for i := 0; i < records; i++ {
		rec := randStableRecord(rng, wire.RecordOp(1+i%4))
		checkRecord(t, rec,
			func() ([]byte, error) { return wire.AppendStableRecord(nil, rec) },
			func(r io.Reader) (any, int, error) { return wire.DecodeStableRecord(r) })
	}
	for i := 0; i < records; i++ {
		rec := randChunkRecord(rng, wire.ChunkOp(1+i%6))
		checkRecord(t, rec,
			func() ([]byte, error) { return wire.AppendChunkRecord(nil, rec) },
			func(r io.Reader) (any, int, error) { return wire.DecodeChunkRecord(r) })
	}
}

// requestN8 is the checkpoint request the repository benchmark's wire
// probe times (bench/probes.go): an 8-entry MR, a trigger, a halved
// weight.
func requestN8() *protocol.Message {
	mr := protocol.NewMRBuilder(8)
	for k := 0; k < 8; k += 2 {
		mr.SetCSN(k, 40+k)
		mr.SetFlag(k)
	}
	return &protocol.Message{
		Kind: protocol.KindRequest, From: 1, To: 2, CSN: 41,
		Trigger: protocol.Trigger{Pid: 0, Inum: 41}, ReqCSN: 40,
		MR: mr.Freeze(), Weight: dyadic.One().Half().Half(),
	}
}

// TestMessageCodecAllocs holds the encoder to zero allocations into a
// reused buffer and the decoder of the benchmark's request to what its
// result needs: the message and the MR builder with its bitset and csn
// map; a weight is its exponent and allocates nothing. The paper budgets 50 bytes per system
// message (§5.1); the request frame is under that.
func TestMessageCodecAllocs(t *testing.T) {
	for _, m := range []*protocol.Message{sampleMessage(), requestN8()} {
		buf, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { buf, _ = wire.AppendMessage(buf[:0], m) }); n != 0 {
			t.Errorf("AppendMessage into a reused buffer: %.0f allocs, want 0", n)
		}
	}
	frame, err := wire.AppendMessage(nil, requestN8())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := wire.DecodeMessage(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("requestN8: %d-byte frame, DecodeMessage %.0f allocs", len(frame), allocs)
	if len(frame) > 50 || allocs > 9 {
		t.Errorf("requestN8: %d-byte frame (want ≤ 50), DecodeMessage %.0f allocs (want ≤ 9)", len(frame), allocs)
	}
}

func BenchmarkAppendMessage(b *testing.B) {
	m := requestN8()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = wire.AppendMessage(buf[:0], m)
	}
}

func BenchmarkDecodeMessage(b *testing.B) {
	frame, err := wire.AppendMessage(nil, requestN8())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeMessage(frame); err != nil {
			b.Fatal(err)
		}
	}
}
