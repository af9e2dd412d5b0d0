// Package logbased implements independent checkpointing with sender-based
// message logging: the fourth algorithm family of the Table-1-style
// comparison (blocking / all-process / mutable / log-based), after the
// asynchronous-recovery competitors in the paper's related work. No
// coordination happens at checkpoint time — Initiate commits a local
// checkpoint immediately, with zero system messages and zero blocking —
// because consistency is restored at *recovery* time instead: every
// sender logs its computation sends (the runtime's sender-based message
// log, simrt.Config.MessageLogging), and a failed process replays from
// its own latest checkpoint plus its peers' logs, rolling nobody else
// back. Failure-free overhead is the log write; the price is paid only
// when a failure actually happens.
//
// The engine itself is deliberately minimal: all recovery intelligence
// lives in internal/recovery's executor, which replays the logs with
// exactly-once dedup against the restored checkpoint's receive counters.
package logbased

import (
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// Engine is the per-process independent-checkpointing state machine.
type Engine struct {
	env protocol.Env
	id  protocol.ProcessID

	csn int // this process's own checkpoint sequence number
}

var (
	_ protocol.Engine             = (*Engine)(nil)
	_ protocol.CheckpointRestorer = (*Engine)(nil)
)

// New returns a log-based engine bound to env.
func New(env protocol.Env) *Engine {
	return &Engine{env: env, id: env.ID()}
}

// Name identifies the algorithm.
func (e *Engine) Name() string { return "log-based" }

// InProgress always reports false: an independent checkpoint is committed
// within the Initiate call, so there is never an instance in flight.
func (e *Engine) InProgress() bool { return false }

// CSN exposes the current checkpoint sequence number (tests).
func (e *Engine) CSN() int { return e.csn }

// PrepareSend stamps an outgoing computation message. The determinant is
// logged by the runtime (sender-based logging is an Env concern — the
// log must survive the engine being rebuilt on recovery), so the engine
// only carries its csn for observability.
func (e *Engine) PrepareSend(m *protocol.Message) {
	m.Kind = protocol.KindComputation
	m.CSN = e.csn
	m.Trigger = protocol.NoTrigger
}

// Initiate takes an independent checkpoint: tentative write, immediate
// commit, done — no coordination, no system messages, no blocking.
func (e *Engine) Initiate() error {
	e.csn++
	trig := protocol.Trigger{Pid: e.id, Inum: e.csn}
	e.env.Trace(trace.KindInitiate, -1, "independent csn=%d", e.csn)
	st := e.env.CaptureState()
	st.CSN = e.csn
	e.env.SaveTentative(st, trig)
	e.env.MakePermanent(trig)
	e.env.Trace(trace.KindPermanent, -1, "csn=%d", e.csn)
	e.env.CheckpointingDone(trig, true)
	return nil
}

// HandleMessage delivers computation messages; there are no system
// messages in this family.
func (e *Engine) HandleMessage(m *protocol.Message) {
	if m.Kind != protocol.KindComputation {
		return
	}
	e.env.Trace(trace.KindReceive, m.From, "csn=%d", m.CSN)
	e.env.DeliverApp(m)
}

// RestoreFromCheckpoint implements protocol.CheckpointRestorer: a rebuilt
// engine resumes its checkpoint numbering from the restored checkpoint.
func (e *Engine) RestoreFromCheckpoint(csn int) { e.csn = csn }
