// Package naive implements the strawman checkpointing schemes of §3.1.1,
// used as ablations against the mutable-checkpoint algorithm:
//
//   - ModeSimple: a process checkpoints to stable storage whenever it
//     receives a computation message with a csn larger than expected. This
//     is the "basic scheme" whose induced checkpoints cascade (the
//     avalanche effect).
//   - ModeRevised: as ModeSimple, but only if the process has sent a
//     message in its current checkpoint interval (the paper's first
//     refinement; it still avalanches).
//   - ModeNoCSN: no csn piggybacking at all — the broken design of Fig. 1
//     that records orphan messages. It exists so tests can demonstrate the
//     inconsistency the csn machinery prevents.
//
// Unlike the paper's full algorithm, induced checkpoints here are real
// stable-storage checkpoints: that is exactly the overhead mutable
// checkpoints were invented to avoid, and what the ablation measures.
package naive

import (
	"errors"

	"mutablecp/internal/dyadic"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// Mode selects the strawman variant.
type Mode int

// Strawman variants.
const (
	ModeSimple Mode = iota + 1
	ModeRevised
	ModeNoCSN
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSimple:
		return "naive-simple"
	case ModeRevised:
		return "naive-revised"
	case ModeNoCSN:
		return "naive-nocsn"
	default:
		return "naive?"
	}
}

// ErrCheckpointInProgress is returned by Initiate when an initiated
// instance has not terminated yet.
var ErrCheckpointInProgress = errors.New("naive: checkpointing already in progress")

// Engine is the per-process strawman state machine. Checkpoints become
// permanent immediately (these schemes predate two-phase refinement); the
// weight machinery is used only so the harness can detect when the
// initiator's request tree has quiesced.
type Engine struct {
	env  protocol.Env
	mode Mode
	id   protocol.ProcessID
	n    int

	csn    []int
	r      []bool
	sent   bool
	oldCSN int

	lastTrig protocol.Trigger // last initiation this process checkpointed for

	initiating bool
	trig       protocol.Trigger
	weight     dyadic.Sum
}

var _ protocol.Engine = (*Engine)(nil)

// New returns a strawman engine in the given mode.
func New(env protocol.Env, mode Mode) *Engine {
	n := env.N()
	return &Engine{
		env:      env,
		mode:     mode,
		id:       env.ID(),
		n:        n,
		csn:      make([]int, n),
		r:        make([]bool, n),
		lastTrig: protocol.NoTrigger,
	}
}

// Name identifies the variant.
func (e *Engine) Name() string { return e.mode.String() }

// InProgress reports whether this process's own initiation is running.
func (e *Engine) InProgress() bool { return e.initiating }

// OwnTrigger returns the trigger of the current/last own initiation.
func (e *Engine) OwnTrigger() protocol.Trigger { return e.trig }

// PrepareSend piggybacks the csn (except in ModeNoCSN).
func (e *Engine) PrepareSend(m *protocol.Message) {
	m.Kind = protocol.KindComputation
	m.Trigger = e.lastTrig
	if e.mode != ModeNoCSN {
		m.CSN = e.csn[e.id]
	}
	e.sent = true
}

// Initiate starts an instance rooted at this process.
func (e *Engine) Initiate() error {
	if e.initiating {
		return ErrCheckpointInProgress
	}
	e.initiating = true
	e.trig = protocol.Trigger{Pid: e.id, Inum: e.csn[e.id] + 1}
	e.env.Trace(trace.KindInitiate, -1, "trigger=%v", e.trig)
	e.weight.Reset()
	e.weight.Add(e.checkpointAndPropagate(e.trig, dyadic.One()))
	e.maybeDone()
	return nil
}

// takeCheckpoint writes (and immediately commits) one stable checkpoint.
func (e *Engine) takeCheckpoint(trig protocol.Trigger) {
	e.csn[e.id]++
	st := e.env.CaptureState()
	st.CSN = e.csn[e.id]
	e.env.SaveTentative(st, trig)
	e.env.MakePermanent(trig)
	e.env.Trace(trace.KindTentative, -1, "csn=%d trigger=%v", st.CSN, trig)
	e.oldCSN = e.csn[e.id]
	e.lastTrig = trig
}

// checkpointAndPropagate takes a stable checkpoint and asks the current
// dependency set to checkpoint too, splitting w among the requests. It
// returns the retained weight.
func (e *Engine) checkpointAndPropagate(trig protocol.Trigger, w dyadic.Weight) dyadic.Weight {
	e.takeCheckpoint(trig)

	deps := make([]protocol.ProcessID, 0, e.n)
	for k := 0; k < e.n; k++ {
		if k != e.id && e.r[k] {
			deps = append(deps, k)
		}
	}
	e.sent = false
	for i := range e.r {
		e.r[i] = false
	}
	for _, k := range deps {
		w = w.Half()
		e.env.Trace(trace.KindRequest, k, "trigger=%v", trig)
		out := protocol.NewMessage(e.env)
		*out = protocol.Message{
			Kind:    protocol.KindRequest,
			From:    e.id,
			To:      k,
			CSN:     e.csn[e.id],
			Trigger: trig,
			ReqCSN:  e.csn[k],
			Weight:  w,
		}
		e.env.Send(out)
	}
	return w
}

// HandleMessage dispatches one arriving message.
func (e *Engine) HandleMessage(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindComputation:
		e.handleComputation(m)
	case protocol.KindRequest:
		e.handleRequest(m)
	case protocol.KindReply:
		e.credit(m.Trigger, m.Weight)
	default:
	}
}

func (e *Engine) handleComputation(m *protocol.Message) {
	e.env.Trace(trace.KindReceive, m.From, "csn=%d", m.CSN)
	if e.mode != ModeNoCSN && m.CSN > e.csn[m.From] {
		e.csn[m.From] = m.CSN
		induced := e.mode == ModeSimple || (e.mode == ModeRevised && e.sent)
		if induced {
			// The avalanche step: a stable checkpoint (plus a fresh round
			// of requests) forced by a computation message.
			e.checkpointAndPropagate(m.Trigger, dyadic.Zero())
		}
	}
	e.r[m.From] = true
	e.env.DeliverApp(m)
}

func (e *Engine) handleRequest(m *protocol.Message) {
	e.csn[m.From] = m.CSN
	retained := dyadic.Zero()
	switch {
	case e.mode == ModeNoCSN:
		// Fig. 1's broken design: checkpoint on request, nothing more —
		// no csn bookkeeping, no propagation. The initiator alone asks
		// its direct dependents, which is exactly what lets the m1
		// interleaving create an orphan.
		e.takeCheckpoint(m.Trigger)
		retained = m.Weight
	case e.oldCSN <= m.ReqCSN:
		retained = e.checkpointAndPropagate(m.Trigger, m.Weight)
	default:
		retained = m.Weight
	}
	if m.Weight.IsZero() {
		return // fire-and-forget cascade request
	}
	initiator := m.Trigger.Pid
	if initiator == e.id {
		e.credit(m.Trigger, retained)
		return
	}
	out := protocol.NewMessage(e.env)
	*out = protocol.Message{
		Kind:    protocol.KindReply,
		From:    e.id,
		To:      initiator,
		Trigger: m.Trigger,
		Weight:  retained,
	}
	e.env.Send(out)
}

func (e *Engine) credit(trig protocol.Trigger, w dyadic.Weight) {
	if !e.initiating || trig != e.trig {
		return
	}
	e.weight.Add(w)
	e.maybeDone()
}

func (e *Engine) maybeDone() {
	if !e.initiating || !e.weight.IsOne() {
		return
	}
	e.initiating = false
	e.weight.Reset()
	e.env.Trace(trace.KindCommit, -1, "trigger=%v", e.trig)
	e.env.CheckpointingDone(e.trig, true)
}
