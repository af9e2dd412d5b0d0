// Package elnozahy implements the Elnozahy–Johnson–Zwaenepoel consistent
// checkpointing algorithm ([13] in the paper): the nonblocking baseline of
// Table 1. The initiator broadcasts a checkpoint request carrying a new
// checkpoint sequence number; every process in the system takes a
// checkpoint, either on receiving the request or on receiving a
// computation message that piggybacks the new csn first. Message overhead
// is 2·C_broad + N·C_air and no process ever blocks, but all N processes
// transfer checkpoints to stable storage on every initiation.
//
// Checkpoint rounds are system-global and identified by their csn, so the
// engine uses a canonical trigger (Pid 0, Inum csn) for every round
// regardless of which process initiated it: a process forced to checkpoint
// by a piggybacked csn cannot know the initiator's identity.
package elnozahy

import (
	"errors"

	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// ErrCheckpointInProgress is returned by Initiate while an instance this
// process started is still running.
var ErrCheckpointInProgress = errors.New("elnozahy: checkpointing already in progress")

// roundTrigger canonically names the checkpoint round with sequence csn.
func roundTrigger(csn int) protocol.Trigger { return protocol.Trigger{Pid: 0, Inum: csn} }

// Engine is the per-process EJZ state machine.
type Engine struct {
	env protocol.Env
	id  protocol.ProcessID
	n   int

	csn     int // checkpoint sequence number this process knows
	pending bool
	pendCSN int // csn of the pending tentative checkpoint

	initiating bool
	round      int
	replies    int
}

var (
	_ protocol.Engine             = (*Engine)(nil)
	_ protocol.CheckpointRestorer = (*Engine)(nil)
)

// New returns an EJZ engine bound to env.
func New(env protocol.Env) *Engine {
	return &Engine{env: env, id: env.ID(), n: env.N()}
}

// Name identifies the algorithm.
func (e *Engine) Name() string { return "elnozahy" }

// InProgress reports whether this process has an uncommitted checkpoint.
func (e *Engine) InProgress() bool { return e.pending || e.initiating }

// OwnTrigger returns the canonical trigger of the round this process
// initiated (tests).
func (e *Engine) OwnTrigger() protocol.Trigger { return roundTrigger(e.round) }

// CSN exposes the current sequence number (tests).
func (e *Engine) CSN() int { return e.csn }

// RestoreFromCheckpoint implements protocol.CheckpointRestorer: a
// rebuilt engine resumes the system-global round numbering from the
// restored checkpoint's csn, so its next round is csn+1.
func (e *Engine) RestoreFromCheckpoint(csn int) {
	e.csn = csn
	e.round = csn
}

// PrepareSend piggybacks the current csn on every computation message.
func (e *Engine) PrepareSend(m *protocol.Message) {
	m.Kind = protocol.KindComputation
	m.CSN = e.csn
	m.Trigger = protocol.NoTrigger
}

// Initiate starts a round: take a checkpoint with the next csn and
// broadcast the request (first C_broad).
func (e *Engine) Initiate() error {
	if e.InProgress() {
		return ErrCheckpointInProgress
	}
	e.initiating = true
	e.replies = 0
	e.round = e.csn + 1
	e.env.Trace(trace.KindInitiate, -1, "round=%d", e.round)
	e.takeCheckpoint(e.round)
	e.env.Broadcast(&protocol.Message{
		Kind:    protocol.KindRequest,
		From:    e.id,
		CSN:     e.round,
		Trigger: roundTrigger(e.round),
	})
	return nil
}

// takeCheckpoint writes a tentative checkpoint for the new csn.
func (e *Engine) takeCheckpoint(newCSN int) {
	if e.pending {
		// Already checkpointed this round; just track the csn.
		if newCSN > e.csn {
			e.csn = newCSN
		}
		return
	}
	e.csn = newCSN
	st := e.env.CaptureState()
	st.CSN = e.csn
	e.env.SaveTentative(st, roundTrigger(e.csn))
	e.env.Trace(trace.KindTentative, -1, "csn=%d", e.csn)
	e.pending = true
	e.pendCSN = e.csn
}

// HandleMessage dispatches one arriving message.
func (e *Engine) HandleMessage(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindComputation:
		// Orphan avoidance: the sender checkpointed before sending, so we
		// must checkpoint before processing.
		if m.CSN > e.csn {
			e.takeCheckpoint(m.CSN)
		}
		e.env.Trace(trace.KindReceive, m.From, "csn=%d", m.CSN)
		e.env.DeliverApp(m)
	case protocol.KindRequest:
		if m.CSN > e.csn {
			e.takeCheckpoint(m.CSN)
		}
		e.env.Send(&protocol.Message{
			Kind:    protocol.KindReply,
			From:    e.id,
			To:      m.From,
			Trigger: m.Trigger,
		})
	case protocol.KindReply:
		if !e.initiating || m.Trigger != roundTrigger(e.round) {
			return
		}
		e.replies++
		if e.replies == e.n-1 {
			e.commit()
		}
	case protocol.KindCommit:
		e.applyCommit()
	default:
	}
}

// commit is the initiator's second phase (second C_broad).
func (e *Engine) commit() {
	trig := roundTrigger(e.round)
	e.initiating = false
	e.env.Trace(trace.KindCommit, -1, "broadcast round=%d", e.round)
	e.env.Broadcast(&protocol.Message{
		Kind:    protocol.KindCommit,
		From:    e.id,
		Trigger: trig,
	})
	e.applyCommit()
	e.env.CheckpointingDone(trig, true)
}

func (e *Engine) applyCommit() {
	if !e.pending {
		return
	}
	e.env.MakePermanent(roundTrigger(e.pendCSN))
	e.env.Trace(trace.KindPermanent, -1, "csn=%d", e.pendCSN)
	e.pending = false
}
