package wire_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"

	"mutablecp/internal/dyadic"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden frames from the current encoder")

// goldenMessages covers every frame shape peers exchange; the request
// carries a populated MR vector, the piece of the format most exposed to
// engine-representation changes.
var goldenMessages = []struct {
	name string
	m    *protocol.Message
}{
	{"request", sampleMessage()},
	{"computation", &protocol.Message{Kind: protocol.KindComputation, From: 1, To: 2, Seq: 5, Size: 1024, CSN: 3, Trigger: protocol.NoTrigger}},
	{"reply", &protocol.Message{Kind: protocol.KindReply, From: 7, To: 3, Trigger: protocol.Trigger{Pid: 3, Inum: 9},
		Weight: dyadic.Pow(8)}},
	{"commit", &protocol.Message{Kind: protocol.KindCommit, From: 3, Trigger: protocol.Trigger{Pid: 3, Inum: 9}, Commit: true}},
	{"abort", &protocol.Message{Kind: protocol.KindAbort, From: 3, Trigger: protocol.Trigger{Pid: 3, Inum: 9}}},
}

// goldenRow is one pinned frame: how to produce it from its value, and
// how to decode bytes of its kind and encode the result again.
type goldenRow struct {
	name     string
	encode   func() ([]byte, error)
	reencode func(frame []byte) ([]byte, error)
}

func goldenRows() []goldenRow {
	var rows []goldenRow
	for _, g := range goldenMessages {
		rows = append(rows, goldenRow{
			name:   g.name,
			encode: func() ([]byte, error) { return wire.AppendMessage(nil, g.m) },
			reencode: func(frame []byte) ([]byte, error) {
				got, err := wire.NewDecoder(bytes.NewReader(frame)).Decode()
				if err != nil {
					return nil, err
				}
				return wire.AppendMessage(nil, got)
			},
		})
	}
	for _, s := range []struct {
		name string
		rec  *wire.StableRecord
	}{
		{"stable-tentative", sampleTentativeRecord()},
		{"stable-snapshot", sampleSnapshotRecord()},
		{"stable-snapshot-v2", sampleOutcomesRecord()},
	} {
		rec := s.rec
		rows = append(rows, goldenRow{
			name:   s.name,
			encode: func() ([]byte, error) { return wire.AppendStableRecord(nil, rec) },
			reencode: func(frame []byte) ([]byte, error) {
				got, _, err := wire.DecodeStableRecord(bytes.NewReader(frame))
				if err != nil {
					return nil, err
				}
				return wire.AppendStableRecord(nil, got)
			},
		})
	}
	for _, rec := range chunkCorpusRecords() {
		if rec.Op != wire.ChunkOpPut && rec.Op != wire.ChunkOpManifest {
			continue
		}
		rows = append(rows, goldenRow{
			name:   "chunk-" + rec.Op.String(),
			encode: func() ([]byte, error) { return wire.AppendChunkRecord(nil, rec) },
			reencode: func(frame []byte) ([]byte, error) {
				got, _, err := wire.DecodeChunkRecord(bytes.NewReader(frame))
				if err != nil {
					return nil, err
				}
				return wire.AppendChunkRecord(nil, got)
			},
		})
	}
	return rows
}

const goldenFramesPath = "testdata/golden_frames.hex"

// TestGoldenFrameBytes locks the wire format and the two disk formats
// byte for byte: every row must encode to the committed bytes, and the
// committed bytes must decode to a value that encodes to them again.
// TestCodecProperties shows decode inverts encode, so together they pin
// what every field of the committed bytes means. A deliberate format
// change bumps the body's version byte and reruns with -update.
func TestGoldenFrameBytes(t *testing.T) {
	rows := goldenRows()
	got := make(map[string]string, len(rows))
	for _, row := range rows {
		frame, err := row.encode()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		got[row.name] = hex.EncodeToString(frame)
	}
	if *update {
		var sb strings.Builder
		for _, row := range rows {
			sb.WriteString(row.name + " " + got[row.name] + "\n")
		}
		if err := os.WriteFile(goldenFramesPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenFramesPath)
	if err != nil {
		t.Fatalf("missing golden frames (run with -update to capture): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		name, frame, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = frame
	}
	if len(want) != len(rows) {
		t.Errorf("golden file has %d rows, the test %d", len(want), len(rows))
	}
	for _, row := range rows {
		w, ok := want[row.name]
		if !ok {
			t.Errorf("%s: no golden frame recorded (run with -update)", row.name)
			continue
		}
		if got[row.name] != w {
			t.Errorf("%s: encoded frame drifted from the recorded format:\n got %s\nwant %s", row.name, got[row.name], w)
		}
		raw, err := hex.DecodeString(w)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", row.name, err)
		}
		again, err := row.reencode(raw)
		if err != nil {
			t.Fatalf("%s: golden frame no longer decodes: %v", row.name, err)
		}
		if !bytes.Equal(again, raw) {
			t.Errorf("%s: golden frame decodes to a value that encodes differently:\n got %x\nwant %x", row.name, again, raw)
		}
	}
}
