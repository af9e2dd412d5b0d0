package chunkstore

// System is the payload-plane surface the runtimes, recovery, and the
// daemon consume, implemented by both a single Store and a Stripe.
// Proc-scoped views adapt it to checkpoint.PayloadStore so the engines'
// Env hooks stay chunkstore-agnostic.

import (
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
)

// System is one checkpoint payload backend: a single MSS chunk store or
// a stripe of them.
type System interface {
	// PutTentative stores proc's image as trig's tentative payload.
	PutTentative(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration, image []byte) (checkpoint.PayloadReceipt, error)
	// CommitTentative promotes trig's tentative payload (durable point).
	CommitTentative(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration) error
	// DropTentative discards trig's tentative payload.
	DropTentative(proc protocol.ProcessID, trig protocol.Trigger) error
	// TentativeTriggers lists proc's pending payload triggers.
	TentativeTriggers(proc protocol.ProcessID) []protocol.Trigger
	// Materialize reassembles proc's newest permanent payload image.
	Materialize(proc protocol.ProcessID) ([]byte, bool, error)
	// RestoreCost reports the deduped distinct-chunk bytes a restore of
	// proc's newest permanent payload transfers over the wireless medium.
	RestoreCost(proc protocol.ProcessID) (uint64, bool)
	// Verify checks every retained manifest of proc resolves to intact,
	// hash-verified chunks.
	Verify(proc protocol.ProcessID) error
	// Stats summarizes the backend.
	Stats() Stats
	// Close releases the backend.
	Close() error
}

var (
	_ System = (*Store)(nil)
	_ System = (*Stripe)(nil)
)

// Proc returns a per-process checkpoint.PayloadStore view over the
// store.
func (s *Store) Proc(proc protocol.ProcessID) checkpoint.PayloadStore {
	return procView{sys: s, proc: proc}
}

// Proc returns a per-process checkpoint.PayloadStore view over the
// stripe.
func (st *Stripe) Proc(proc protocol.ProcessID) checkpoint.PayloadStore {
	return procView{sys: st, proc: proc}
}

type procView struct {
	sys  System
	proc protocol.ProcessID
}

func (v procView) SavePayload(trig protocol.Trigger, at time.Duration, image []byte) (checkpoint.PayloadReceipt, error) {
	return v.sys.PutTentative(v.proc, trig, at, image)
}

func (v procView) CommitPayload(trig protocol.Trigger, at time.Duration) error {
	return v.sys.CommitTentative(v.proc, trig, at)
}

func (v procView) DropPayload(trig protocol.Trigger) error {
	return v.sys.DropTentative(v.proc, trig)
}

func (v procView) TentativePayloads() []protocol.Trigger {
	return v.sys.TentativeTriggers(v.proc)
}

func (v procView) PermanentPayload() ([]byte, bool, error) {
	return v.sys.Materialize(v.proc)
}

func (v procView) RestorePayloadBytes() (uint64, bool) {
	return v.sys.RestoreCost(v.proc)
}
