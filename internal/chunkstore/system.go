package chunkstore

// Proc-scoped views adapt the store to checkpoint.PayloadStore so the
// engines' Env hooks stay chunkstore-agnostic.

import (
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
)

// Proc returns a per-process checkpoint.PayloadStore view over the
// store.
func (s *Store) Proc(proc protocol.ProcessID) checkpoint.PayloadStore {
	return procView{s: s, proc: proc}
}

type procView struct {
	s    *Store
	proc protocol.ProcessID
}

func (v procView) SavePayload(trig protocol.Trigger, at time.Duration, image []byte) (checkpoint.PayloadReceipt, error) {
	return v.s.PutTentative(v.proc, trig, at, image)
}

func (v procView) CommitPayload(trig protocol.Trigger, at time.Duration) error {
	return v.s.CommitTentative(v.proc, trig, at)
}

func (v procView) DropPayload(trig protocol.Trigger) error {
	return v.s.DropTentative(v.proc, trig)
}

func (v procView) TentativePayloads() []protocol.Trigger {
	return v.s.TentativeTriggers(v.proc)
}

func (v procView) PermanentPayload() ([]byte, bool, error) {
	return v.s.Materialize(v.proc)
}

func (v procView) RestorePayloadBytes() (uint64, bool) {
	return v.s.RestoreCost(v.proc)
}
