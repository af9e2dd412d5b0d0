package wire

// Persisted checkpoint records: what internal/stable appends to its
// on-disk segment log, one record frame (see the package comment) each.
// The body has the same fields for every op, in the order
// AppendStableRecord writes them; the ones an op does not use are zero
// and cost a byte. The outcomes that end a version-2 body are the one
// exception: a body without them stops before them.

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mutablecp/internal/protocol"
)

// RecordOp tags a persisted stable-store record.
type RecordOp uint8

// Stable-store log operations. Tentative carries a full checkpoint;
// Commit and Drop are markers resolving a pending tentative; Snapshot is
// a full store image written at creation, seeding, and compaction, and
// resets replay state.
const (
	OpSnapshot RecordOp = iota + 1
	OpTentative
	OpCommit
	OpDrop
	opMax
)

var recordOpNames = map[RecordOp]string{
	OpSnapshot:  "snapshot",
	OpTentative: "tentative",
	OpCommit:    "commit",
	OpDrop:      "drop",
}

// String returns the op name.
func (op RecordOp) String() string {
	if s, ok := recordOpNames[op]; ok {
		return s
	}
	return "op?"
}

// CheckpointImage is one checkpoint inside a snapshot record. Status uses
// the checkpoint package's numbering (1 = tentative, 2 = permanent); wire
// stores it as a raw byte to avoid an import cycle.
type CheckpointImage struct {
	State   protocol.State
	Trigger protocol.Trigger
	Status  uint8
	SavedAt time.Duration
}

// StableRecord is one persisted stable-store log entry. Only the fields
// relevant to Op are populated.
type StableRecord struct {
	Op   RecordOp
	Proc protocol.ProcessID

	// Tentative / Commit / Drop.
	Trigger protocol.Trigger
	At      time.Duration
	State   protocol.State // tentative payload

	// Snapshot: the full store image, permanents oldest first, tentatives
	// in deterministic trigger order.
	Permanent []CheckpointImage
	Tentative []CheckpointImage

	// Snapshot: the outcomes of the process's own instances, as
	// stable.Outcomes keeps them — the highest own inum decided and the
	// own inums aborted, ascending. Version 2 only.
	Decided int
	Aborted []int
}

// A body is version 2 when it carries outcomes and version 1 otherwise,
// so every record but a snapshot is byte-identical to what version-1
// builds wrote, and a version-1 log needs no rewriting.
const (
	stableVersion1 = 1
	stableVersion  = 2
	// minImageLen is the encoded size of a zero CheckpointImage: no image
	// list can claim more entries than the remaining bytes divided by it.
	minImageLen = 9
)

func appendImages(dst []byte, imgs []CheckpointImage) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(imgs)))
	for i := range imgs {
		img := &imgs[i]
		dst = AppendTrigger(AppendState(dst, &img.State), img.Trigger)
		dst = binary.AppendVarint(append(dst, img.Status), int64(img.SavedAt))
	}
	return dst
}

func (c *Cursor) images() []CheckpointImage {
	n := c.Count(minImageLen)
	if n == 0 {
		return nil
	}
	out := make([]CheckpointImage, n)
	for i := range out {
		out[i] = CheckpointImage{
			State: c.State(), Trigger: c.Trigger(),
			Status: c.Byte(), SavedAt: time.Duration(c.Varint()),
		}
	}
	return out
}

// AppendStableRecord appends the framed record to dst and returns the
// extended slice.
func AppendStableRecord(dst []byte, r *StableRecord) ([]byte, error) {
	if r.Op == 0 || r.Op >= opMax {
		return dst, fmt.Errorf("wire: encode stable record: bad op %d", r.Op)
	}
	start := len(dst)
	outcomes := r.Decided != 0 || len(r.Aborted) > 0
	version := byte(stableVersion1)
	if outcomes {
		version = stableVersion
	}
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, version, byte(r.Op))
	dst = AppendTrigger(appendInt(dst, r.Proc), r.Trigger)
	dst = AppendState(binary.AppendVarint(dst, int64(r.At)), &r.State)
	dst = appendImages(appendImages(dst, r.Permanent), r.Tentative)
	if outcomes {
		dst = binary.AppendUvarint(appendInt(dst, r.Decided), uint64(len(r.Aborted)))
		for _, inum := range r.Aborted {
			dst = appendInt(dst, inum)
		}
	}
	return SealFrame(dst, start)
}

// DecodeStableRecord reads one framed record and reports how many bytes
// of the stream it consumed. Errors are ReadFrame's and
// ParseStableRecord's.
func DecodeStableRecord(r io.Reader) (*StableRecord, int, error) {
	body, n, err := ReadFrame(r)
	if err != nil {
		return nil, n, err
	}
	rec, err := ParseStableRecord(body)
	return rec, n, err
}

// ParseStableRecord parses a frame body. It returns ErrFormatVersion for
// an intact body of another format version and ErrCorruptRecord for one
// that does not parse or names no op.
func ParseStableRecord(body []byte) (*StableRecord, error) {
	version := byte(stableVersion)
	if len(body) > 0 && body[0] == stableVersion1 {
		version = stableVersion1
	}
	c, err := OpenBody(body, version)
	if err != nil {
		return nil, err
	}
	rec := &StableRecord{
		Op: RecordOp(c.Byte()), Proc: c.Int(),
		Trigger: c.Trigger(), At: time.Duration(c.Varint()),
		State:     c.State(),
		Permanent: c.images(), Tentative: c.images(),
	}
	if version == stableVersion {
		rec.Decided = c.Int()
		if n := c.Count(1); n > 0 {
			rec.Aborted = make([]int, n)
			for i := range rec.Aborted {
				rec.Aborted[i] = c.Int()
			}
		}
		if rec.Decided == 0 && rec.Aborted == nil {
			// AppendStableRecord writes version 2 only with outcomes.
			c.Fail()
		}
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	if rec.Op == 0 || rec.Op >= opMax {
		return nil, fmt.Errorf("%w: bad op %d", ErrCorruptRecord, rec.Op)
	}
	return rec, nil
}
