package checkpoint

import (
	"errors"
	"time"

	"mutablecp/internal/protocol"
)

// Payload-plane errors.
var (
	ErrNoPayload      = errors.New("checkpoint: no payload for trigger")
	ErrPayloadPending = errors.New("checkpoint: a payload is already pending for trigger")
)

// PayloadReceipt describes what one payload save cost after chunk-level
// dedup. NewBytes is the only data that actually crosses the wireless
// medium and lands on disk; LogicalBytes is the full process-image size a
// naive snapshot would have transferred.
type PayloadReceipt struct {
	LogicalBytes uint64 // process image size
	NewBytes     uint64 // chunk + manifest bytes actually written
	Chunks       int    // chunks in the manifest
	NewChunks    int    // chunks not present in the store before this save
	DedupChunks  int    // chunks satisfied by an existing identical chunk
}

// PayloadStore is the optional data plane behind a Store: where Store
// tracks the ~10KB protocol state of a checkpoint, a PayloadStore holds
// the process image itself, content-addressed and deduplicated. The
// lifecycle mirrors Store exactly — a payload is saved tentatively with
// its trigger, committed when the instance commits, dropped when it
// aborts — and a Keeper drives both. A nil PayloadStore means the run is
// control-plane only (the pre-data-plane behaviour).
type PayloadStore interface {
	// SavePayload stores the process image for a tentative checkpoint.
	SavePayload(trig protocol.Trigger, at time.Duration, image []byte) (PayloadReceipt, error)
	// CommitPayload promotes trig's tentative payload to permanent.
	CommitPayload(trig protocol.Trigger, at time.Duration) error
	// DropPayload discards trig's tentative payload (abort path).
	DropPayload(trig protocol.Trigger) error
	// TentativePayloads lists the pending payload triggers in (Pid, Inum)
	// order.
	TentativePayloads() []protocol.Trigger
	// PermanentPayload materializes the newest permanent payload image.
	// ok is false when no payload has been committed yet.
	PermanentPayload() (image []byte, ok bool, err error)
	// RestorePayloadBytes prices a restore of the newest permanent
	// payload: the deduped distinct-chunk bytes the wireless transfer
	// must carry. ok is false when no payload has been committed yet.
	RestorePayloadBytes() (bytes uint64, ok bool)
}
