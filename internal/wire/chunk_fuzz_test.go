package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// FuzzChunkRecord feeds arbitrary byte streams to the chunk-record
// decoder, the first thing that touches a chunk segment at store open
// after a crash left whatever it left. Like the stable-record decoder it
// must reject any input with a classified error (torn or corrupt), never
// a panic or an unbounded allocation, and every record that does decode
// must survive a re-encode (compaction rewrites live chunks and
// manifests into fresh segments).
//
// Seed corpus lives in testdata/fuzz/FuzzChunkRecord; regenerate with
//
//	WIRE_GEN_CORPUS=1 go test -run TestGenerateChunkRecordCorpus ./internal/wire/
func FuzzChunkRecord(f *testing.F) {
	for _, rec := range chunkCorpusRecords() {
		frame, err := wire.AppendChunkRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])      // torn frame
		f.Add(flip(frame, len(frame)-1)) // garbage body
		f.Add(flip(frame, 5))            // garbage CRC
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // absurd length
	f.Add(frameOf([]byte{1, 2, 3, 4}))                // valid CRC, right version, garbage fields
	f.Add(frameOf([]byte{0xFF, 0}))                   // valid CRC, unknown version

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// A stream holds at most len/9 records (8-byte header + 1 byte);
		// cap the loop anyway against decoder bugs.
		for i, off := 0, 0; i < len(data)/9+1; i++ {
			rec, n, err := wire.DecodeChunkRecord(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, wire.ErrTornRecord) && !errors.Is(err, wire.ErrCorruptRecord) &&
					!errors.Is(err, wire.ErrFormatVersion) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			reencodeChunk(t, rec, data[off:off+n])
			off += n
		}
		if _, _, err := wire.DecodeChunkRecord(r); err == nil {
			t.Fatalf("decoded more records than the input can hold (%d bytes)", len(data))
		}
	})
}

// reencodeChunk pushes a decoded record back through the encoder, the
// operation compaction performs on replayed records: it must give back
// the bytes the record was decoded from.
func reencodeChunk(t *testing.T, rec *wire.ChunkRecord, consumed []byte) {
	t.Helper()
	frame, err := wire.AppendChunkRecord(nil, rec)
	if err != nil || !bytes.Equal(frame, consumed) {
		t.Fatalf("%+v re-encodes to %x (%v), consumed %x", rec, frame, err, consumed)
	}
}

func chunkHashOf(b byte) (h wire.ChunkHash) {
	for i := range h {
		h[i] = b
	}
	return h
}

func chunkCorpusRecords() []*wire.ChunkRecord {
	trig := protocol.Trigger{Pid: 3, Inum: 7}
	return []*wire.ChunkRecord{
		{Op: wire.ChunkOpReset, Length: 42},
		{Op: wire.ChunkOpPut, Hash: chunkHashOf(0xAB), Payload: bytes.Repeat([]byte{0xC5}, 128)},
		{Op: wire.ChunkOpDelta, Hash: chunkHashOf(0xCD), Base: chunkHashOf(0xAB), Payload: []byte{128, 1, 4, 3, 9, 9, 9}},
		{
			Op: wire.ChunkOpManifest, Proc: 3, Trigger: trig, At: 17 * time.Second,
			Status: 1, ChunkBytes: 128, Length: 300,
			Hashes: []wire.ChunkHash{chunkHashOf(0xAB), chunkHashOf(0xCD), chunkHashOf(0xEF)},
		},
		{Op: wire.ChunkOpCommit, Proc: 3, Trigger: trig, At: 19 * time.Second},
		{Op: wire.ChunkOpDrop, Proc: 3, Trigger: trig},
	}
}

// TestGenerateChunkRecordCorpus regenerates the committed seed corpus.
// Skipped unless WIRE_GEN_CORPUS=1 so normal runs never rewrite testdata.
func TestGenerateChunkRecordCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") == "" {
		t.Skip("corpus generator; set WIRE_GEN_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzChunkRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, raw []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"reset", "put", "delta", "manifest", "commit", "drop"}
	var stream []byte
	for i, rec := range chunkCorpusRecords() {
		frame, err := wire.AppendChunkRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		write("valid-"+names[i], frame)
		stream = append(stream, frame...)
	}
	write("valid-stream", stream)
	frame, err := wire.AppendChunkRecord(nil, chunkCorpusRecords()[3]) // manifest: the richest record
	if err != nil {
		t.Fatal(err)
	}
	write("torn-frame", frame[:len(frame)/2])
	write("torn-header", frame[:5])
	write("garbage-crc", flip(frame, 5))
	write("garbage-body", flip(frame, len(frame)-1))
	write("garbage-fields", frameOf([]byte{1, 2, 3, 4}))
	write("unknown-version", frameOf([]byte{0xFF, 0}))
	write("oversize-header", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
}
