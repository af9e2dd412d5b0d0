package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mutablecp/internal/wire"
)

// FuzzStableRecord feeds arbitrary byte streams to the stable-record
// decoder. The decoder is the first thing that touches on-disk bytes at
// store open, after a crash left whatever it left — so like the network
// decoder it must reject any input with an error, never a panic or an
// unbounded allocation, and every record that does decode must survive a
// re-encode (compaction rewrites live records into the snapshot segment).
//
// Seed corpus lives in testdata/fuzz/FuzzStableRecord; regenerate with
//
//	WIRE_GEN_CORPUS=1 go test -run TestGenerateStableRecordCorpus ./internal/wire/
func FuzzStableRecord(f *testing.F) {
	for _, rec := range corpusRecords() {
		frame, err := wire.AppendStableRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])      // torn frame
		f.Add(flip(frame, len(frame)-1)) // garbage CRC
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
			rec, n, err := wire.DecodeStableRecord(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, wire.ErrTornRecord) && !errors.Is(err, wire.ErrCorruptRecord) &&
					!errors.Is(err, wire.ErrFormatVersion) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			reencode(t, rec, data[off:off+n])
			off += n
		}
		if _, _, err := wire.DecodeStableRecord(r); err == nil {
			t.Fatalf("decoded more records than the input can hold (%d bytes)", len(data))
		}
	})
}

// reencode pushes a decoded record back through the encoder, the
// operation compaction performs on replayed records: it must give back
// the bytes the record was decoded from.
func reencode(t *testing.T, rec *wire.StableRecord, consumed []byte) {
	t.Helper()
	frame, err := wire.AppendStableRecord(nil, rec)
	if err != nil || !bytes.Equal(frame, consumed) {
		t.Fatalf("%+v re-encodes to %x (%v), consumed %x", rec, frame, err, consumed)
	}
}

func corpusRecords() []*wire.StableRecord {
	return []*wire.StableRecord{
		sampleTentativeRecord(),
		sampleSnapshotRecord(),
		{Op: wire.OpCommit, Proc: 1, Trigger: sampleTentativeRecord().Trigger},
		{Op: wire.OpDrop, Proc: 2, Trigger: sampleTentativeRecord().Trigger},
		sampleOutcomesRecord(),
	}
}

// TestGenerateStableRecordCorpus regenerates the committed seed corpus.
// Skipped unless WIRE_GEN_CORPUS=1 so normal runs never rewrite testdata.
func TestGenerateStableRecordCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") == "" {
		t.Skip("corpus generator; set WIRE_GEN_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzStableRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, raw []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"tentative", "snapshot", "commit", "drop", "snapshot-v2"}
	var stream []byte
	for i, rec := range corpusRecords() {
		frame, err := wire.AppendStableRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		write("valid-"+names[i], frame)
		stream = append(stream, frame...)
	}
	write("valid-stream", stream)
	frame, err := wire.AppendStableRecord(nil, sampleTentativeRecord())
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
