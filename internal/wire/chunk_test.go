package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"mutablecp/internal/wire"
)

func TestChunkRecordStream(t *testing.T) {
	var stream []byte
	recs := chunkCorpusRecords()
	for _, rec := range recs {
		var err error
		if stream, err = wire.AppendChunkRecord(stream, rec); err != nil {
			t.Fatalf("encode %v: %v", rec.Op, err)
		}
	}
	r := bytes.NewReader(stream)
	for _, want := range recs {
		got, _, err := wire.DecodeChunkRecord(r)
		if err != nil {
			t.Fatalf("decode %v: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mutated %v record:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
	if _, _, err := wire.DecodeChunkRecord(r); err != io.EOF {
		t.Fatalf("stream tail: got %v, want io.EOF", err)
	}
}

func TestChunkRecordBadOp(t *testing.T) {
	if _, err := wire.AppendChunkRecord(nil, &wire.ChunkRecord{Op: 0}); err == nil {
		t.Fatal("op 0 encoded")
	}
	if _, err := wire.AppendChunkRecord(nil, &wire.ChunkRecord{Op: 200}); err == nil {
		t.Fatal("op 200 encoded")
	}
}

func TestChunkRecordOversizePayloadRejected(t *testing.T) {
	rec := &wire.ChunkRecord{Op: wire.ChunkOpPut, Payload: make([]byte, wire.MaxFrame+1)}
	if _, err := wire.AppendChunkRecord(nil, rec); err == nil {
		t.Fatal("over-MaxFrame payload encoded")
	}
}

func TestChunkRecordTornAndCorrupt(t *testing.T) {
	frame, err := wire.AppendChunkRecord(nil, chunkCorpusRecords()[3]) // manifest
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"torn header", frame[:5], wire.ErrTornRecord},
		{"torn body", frame[:len(frame)-3], wire.ErrTornRecord},
		{"flipped crc", flip(frame, 5), wire.ErrCorruptRecord},
		{"flipped body", flip(frame, len(frame)-1), wire.ErrCorruptRecord},
		{"absurd length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, wire.ErrCorruptRecord},
		{"garbage fields", frameOf([]byte{1, 2, 3, 4}), wire.ErrCorruptRecord},
		{"empty body", frameOf(nil), wire.ErrCorruptRecord},
		{"trailing byte", frameOf(append(bodyOf(frame), 0)), wire.ErrCorruptRecord},
		{"op 0", frameOf(withByte(bodyOf(frame), 1, 0)), wire.ErrCorruptRecord},
		{"op 7", frameOf(withByte(bodyOf(frame), 1, 7)), wire.ErrCorruptRecord},
		{"unknown version", frameOf(withByte(bodyOf(frame), 0, 0xFF)), wire.ErrFormatVersion},
	}
	for _, tc := range cases {
		if _, _, err := wire.DecodeChunkRecord(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestChunkRecordHostileHashCount frames a record claiming more manifest
// hashes than any legal frame can carry: the decoder must classify it as
// corruption rather than trust it.
func TestChunkRecordHostileHashCount(t *testing.T) {
	rec := &wire.ChunkRecord{
		Op:     wire.ChunkOpManifest,
		Status: 1,
		Hashes: make([]wire.ChunkHash, wire.MaxFrame/32+1),
	}
	// The honest encoder refuses (the body would exceed MaxFrame)...
	if _, err := wire.AppendChunkRecord(nil, rec); err == nil {
		t.Fatal("hostile manifest encoded")
	}
	// ...so write the count by hand, as hostile bytes on disk would: a
	// put record's body ends in its empty hash list, a zero count byte.
	put, err := wire.AppendChunkRecord(nil, chunkCorpusRecords()[1])
	if err != nil {
		t.Fatal(err)
	}
	body := bodyOf(put)
	body = binary.AppendUvarint(body[:len(body)-1], uint64(len(rec.Hashes)))
	if _, _, err := wire.DecodeChunkRecord(bytes.NewReader(frameOf(body))); !errors.Is(err, wire.ErrCorruptRecord) {
		t.Fatalf("hostile hash count: got %v, want ErrCorruptRecord", err)
	}
	// One hash short of what the count claims is no better.
	body = append(binary.AppendUvarint(bodyOf(put)[:len(body)-1], 2), make([]byte, 63)...)
	if _, _, err := wire.DecodeChunkRecord(bytes.NewReader(frameOf(body))); !errors.Is(err, wire.ErrCorruptRecord) {
		t.Fatalf("short hash list: got %v, want ErrCorruptRecord", err)
	}
}
