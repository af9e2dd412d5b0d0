package wire

// Persisted chunk-store records: what internal/chunkstore appends to its
// content-addressed segment logs, one record frame (see the package
// comment) each, so the chunk store has the stable store's torn-tail and
// corruption taxonomy. As with stable records, every op writes every
// field, in the order AppendChunkRecord writes them.

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mutablecp/internal/protocol"
)

// ChunkHash is a SHA-256 content address.
type ChunkHash [32]byte

// ChunkOp tags a persisted chunk-store record.
type ChunkOp uint8

// Chunk-store log operations. Put carries one content-addressed chunk;
// Delta carried a patch against an already-stored base chunk and was
// written only by a storage mode since removed: it still decodes, and
// the chunk store refuses it at open; Manifest
// lists the chunk hashes of one checkpoint payload; Commit and Drop are
// markers resolving a tentative manifest; Reset is the compaction
// boundary — replay starts at the newest segment that begins with one,
// because everything live was rewritten after it (the chunk store's
// analogue of the stable store's snapshot record).
const (
	ChunkOpReset ChunkOp = iota + 1
	ChunkOpPut
	ChunkOpDelta
	ChunkOpManifest
	ChunkOpCommit
	ChunkOpDrop
	chunkOpMax
)

var chunkOpNames = map[ChunkOp]string{
	ChunkOpReset:    "reset",
	ChunkOpPut:      "put",
	ChunkOpDelta:    "delta",
	ChunkOpManifest: "manifest",
	ChunkOpCommit:   "commit",
	ChunkOpDrop:     "drop",
}

// String returns the op name.
func (op ChunkOp) String() string {
	if s, ok := chunkOpNames[op]; ok {
		return s
	}
	return "op?"
}

// ChunkRecord is one persisted chunk-store log entry. Only the fields
// relevant to Op are populated.
type ChunkRecord struct {
	Op ChunkOp

	// Put / Delta. Hash addresses the decoded chunk content; Payload is
	// the chunk bytes (Put) or the patch (Delta). Base was the delta's
	// base chunk; the chunk store writes it as zero.
	Hash    ChunkHash
	Base    ChunkHash
	Payload []byte

	// Manifest / Commit / Drop. Status uses the checkpoint package's
	// numbering (1 = tentative, 2 = permanent); permanent manifests are
	// written only by compaction, which rewrites committed history.
	Proc       protocol.ProcessID
	Trigger    protocol.Trigger
	At         time.Duration
	Status     uint8
	ChunkBytes int
	Length     int64
	Hashes     []ChunkHash
}

const chunkVersion = 1

// AppendChunkRecord appends the framed record to dst and returns the
// extended slice.
func AppendChunkRecord(dst []byte, r *ChunkRecord) ([]byte, error) {
	if r.Op == 0 || r.Op >= chunkOpMax {
		return dst, fmt.Errorf("wire: encode chunk record: bad op %d", r.Op)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, chunkVersion, byte(r.Op))
	dst = AppendTrigger(appendInt(dst, r.Proc), r.Trigger)
	dst = append(binary.AppendVarint(dst, int64(r.At)), r.Status)
	dst = binary.AppendVarint(appendInt(dst, r.ChunkBytes), r.Length)
	dst = append(append(dst, r.Hash[:]...), r.Base[:]...)
	dst = AppendBytes(dst, r.Payload)
	dst = binary.AppendUvarint(dst, uint64(len(r.Hashes)))
	for i := range r.Hashes {
		dst = append(dst, r.Hashes[i][:]...)
	}
	return SealFrame(dst, start)
}

func (c *Cursor) hash() (h ChunkHash) {
	copy(h[:], c.take(len(h)))
	return h
}

// DecodeChunkRecord reads one framed record and reports how many bytes of
// the stream it consumed. Errors follow DecodeStableRecord exactly.
func DecodeChunkRecord(r io.Reader) (*ChunkRecord, int, error) {
	body, n, err := ReadFrame(r)
	if err != nil {
		return nil, n, err
	}
	rec, err := ParseChunkRecord(body)
	return rec, n, err
}

// ParseChunkRecord parses a frame body; errors follow ParseStableRecord.
// The record's Payload aliases body.
func ParseChunkRecord(body []byte) (*ChunkRecord, error) {
	c, err := OpenBody(body, chunkVersion)
	if err != nil {
		return nil, err
	}
	rec := &ChunkRecord{
		Op: ChunkOp(c.Byte()), Proc: c.Int(),
		Trigger: c.Trigger(), At: time.Duration(c.Varint()), Status: c.Byte(),
		ChunkBytes: c.Int(), Length: c.Varint(),
		Hash: c.hash(), Base: c.hash(),
		Payload: c.Bytes(),
	}
	// Count bounds the list by the bytes that are there, so no frame can
	// claim more than MaxFrame/32 hashes.
	if k := c.Count(len(ChunkHash{})); k > 0 {
		rec.Hashes = make([]ChunkHash, k)
		for i := range rec.Hashes {
			rec.Hashes[i] = c.hash()
		}
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	if rec.Op == 0 || rec.Op >= chunkOpMax {
		return nil, fmt.Errorf("%w: bad op %d", ErrCorruptRecord, rec.Op)
	}
	return rec, nil
}
