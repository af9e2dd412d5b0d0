// Package kootoueg implements the Koo–Toueg coordinated checkpointing
// algorithm ([19] in the paper): the blocking, minimum-process baseline of
// Table 1. Only processes in the initiator's transitive dependency closure
// take checkpoints, but every participant blocks its underlying
// computation from the moment it takes a tentative checkpoint until the
// commit/abort decision arrives, and requests are propagated to every
// dependency without suppression (message overhead 3·Nmin·Ndep·C_air).
package kootoueg

import (
	"errors"

	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// ErrCheckpointInProgress is returned by Initiate when the process is
// already participating in an instance.
var ErrCheckpointInProgress = errors.New("kootoueg: checkpointing already in progress")

// Engine is the per-process Koo–Toueg state machine.
type Engine struct {
	env protocol.Env
	id  protocol.ProcessID
	n   int

	// recvSince[j] counts computation messages received from j since the
	// last stable checkpoint: the dependency set.
	recvSince []uint64
	// recvTotal[j] is the cumulative receive count from j; a request to j
	// carries it so j can tell whether its own last checkpoint already
	// records the sends we observed.
	recvTotal []uint64
	// sentAtCkpt[j] is the cumulative count of messages sent to j as of
	// this process's last stable checkpoint.
	sentAtCkpt []uint64
	sentTotal  []uint64

	inProgress bool
	trig       protocol.Trigger
	initiator  bool
	parent     protocol.ProcessID // who we inherited the request from
	children   []protocol.ProcessID
	awaiting   int
	tookCkpt   bool
	seq        int // per-process initiation counter for triggers
	ckpts      int // checkpoints taken (numbers this process's snapshots)

	// Saved at tentative-checkpoint time: what the checkpoint records
	// (committed into sentAtCkpt on commit) and the dependency counters it
	// cleared (restored on abort).
	pendingSentAtCkpt []uint64
	savedRecvSince    []uint64
}

var (
	_ protocol.Engine             = (*Engine)(nil)
	_ protocol.CheckpointRestorer = (*Engine)(nil)
)

// New returns a Koo–Toueg engine bound to env.
func New(env protocol.Env) *Engine {
	n := env.N()
	return &Engine{
		env:        env,
		id:         env.ID(),
		n:          n,
		recvSince:  make([]uint64, n),
		recvTotal:  make([]uint64, n),
		sentAtCkpt: make([]uint64, n),
		sentTotal:  make([]uint64, n),
		parent:     -1,
	}
}

// Name identifies the algorithm.
func (e *Engine) Name() string { return "koo-toueg" }

// InProgress reports whether the process is inside an instance.
func (e *Engine) InProgress() bool { return e.inProgress }

// OwnTrigger returns the trigger of the current/last instance.
func (e *Engine) OwnTrigger() protocol.Trigger { return e.trig }

// RestoreFromCheckpoint implements protocol.CheckpointRestorer: a
// rebuilt engine resumes its checkpoint and initiation numbering from
// the restored checkpoint's csn (dependency counters start empty — the
// restored state opens a fresh interval).
func (e *Engine) RestoreFromCheckpoint(csn int) {
	e.ckpts = csn
	e.seq = csn
	e.trig = protocol.Trigger{Pid: e.id, Inum: csn}
}

// PrepareSend stamps an outgoing computation message. Koo–Toueg needs no
// piggybacked control information; the runtime guarantees we are not
// blocked when this is called.
func (e *Engine) PrepareSend(m *protocol.Message) {
	m.Kind = protocol.KindComputation
	m.Trigger = protocol.NoTrigger
	e.sentTotal[m.To]++
}

// Initiate starts a two-phase checkpointing instance (first phase:
// tentative checkpoints down the dependency tree).
func (e *Engine) Initiate() error {
	if e.inProgress {
		return ErrCheckpointInProgress
	}
	e.seq++
	e.trig = protocol.Trigger{Pid: e.id, Inum: e.seq}
	e.inProgress = true
	e.initiator = true
	e.parent = -1
	e.env.Trace(trace.KindInitiate, -1, "trigger=%v", e.trig)
	e.takeTentative()
	e.sendRequests()
	if e.awaiting == 0 {
		e.decide(true)
	}
	return nil
}

// takeTentative writes the checkpoint and blocks the computation until the
// second-phase decision. The dependency counters reset here — messages
// received after this instant belong to the next checkpoint interval.
func (e *Engine) takeTentative() {
	st := e.env.CaptureState()
	e.ckpts++
	st.CSN = e.ckpts
	e.env.SaveTentative(st, e.trig)
	e.env.Trace(trace.KindTentative, -1, "trigger=%v", e.trig)
	e.tookCkpt = true
	e.pendingSentAtCkpt = append([]uint64(nil), e.sentTotal...)
	e.savedRecvSince = append([]uint64(nil), e.recvSince...)
	for i := range e.recvSince {
		e.recvSince[i] = 0
	}
	e.env.BlockApp()
}

// sendRequests asks every dependency (as of the tentative checkpoint just
// taken, i.e. savedRecvSince) to checkpoint, and records the children we
// must hear back from.
func (e *Engine) sendRequests() {
	e.children = e.children[:0]
	for j := 0; j < e.n; j++ {
		if j == e.id || e.savedRecvSince[j] == 0 {
			continue
		}
		e.children = append(e.children, j)
	}
	e.awaiting = len(e.children)
	for _, j := range e.children {
		e.env.Trace(trace.KindRequest, j, "trigger=%v expected=%d", e.trig, e.recvTotal[j])
		e.env.Send(&protocol.Message{
			Kind:    protocol.KindRequest,
			From:    e.id,
			To:      j,
			Trigger: e.trig,
			// ReqCSN carries the cumulative number of messages we have
			// received from j; j checkpoints iff its last checkpoint does
			// not record that many sends to us.
			ReqCSN: int(e.recvTotal[j]),
		})
	}
}

// HandleMessage dispatches one arriving message.
func (e *Engine) HandleMessage(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindComputation:
		e.recvSince[m.From]++
		e.recvTotal[m.From]++
		e.env.Trace(trace.KindReceive, m.From, "")
		e.env.DeliverApp(m)
	case protocol.KindRequest:
		e.handleRequest(m)
	case protocol.KindReply:
		e.handleReply(m)
	case protocol.KindDecision:
		e.handleDecision(m)
	default:
	}
}

func (e *Engine) handleRequest(m *protocol.Message) {
	if e.inProgress && m.Trigger == e.trig {
		// Already participating in this instance: nothing more to do.
		e.replyTo(m.From, m.Trigger, true)
		return
	}
	if e.inProgress && m.Trigger != e.trig {
		// Concurrent initiation: refuse, aborting the other instance
		// (the paper's §3.5 note on [19]'s handling).
		e.replyTo(m.From, m.Trigger, false)
		return
	}
	// Does our last checkpoint already record every send the requester has
	// seen from us?
	if e.sentAtCkpt[m.From] >= uint64(m.ReqCSN) {
		e.replyTo(m.From, m.Trigger, true)
		return
	}
	e.inProgress = true
	e.initiator = false
	e.trig = m.Trigger
	e.parent = m.From
	e.takeTentative()
	e.sendRequests()
	if e.awaiting == 0 {
		e.replyTo(e.parent, e.trig, true)
	}
}

// replyTo answers a request for the given instance; ok=false propagates a
// refusal.
func (e *Engine) replyTo(to protocol.ProcessID, trig protocol.Trigger, ok bool) {
	e.env.Trace(trace.KindReply, to, "ok=%v", ok)
	e.env.Send(&protocol.Message{
		Kind:    protocol.KindReply,
		From:    e.id,
		To:      to,
		Trigger: trig,
		Commit:  ok,
	})
}

func (e *Engine) handleReply(m *protocol.Message) {
	if !e.inProgress || m.Trigger != e.trig {
		return
	}
	if !m.Commit {
		// A subtree refused: abort the whole instance.
		if e.initiator {
			e.decide(false)
		} else if e.parent >= 0 {
			e.replyTo(e.parent, e.trig, false)
		}
		return
	}
	e.awaiting--
	if e.awaiting > 0 {
		return
	}
	if e.initiator {
		e.decide(true)
		return
	}
	e.replyTo(e.parent, e.trig, true)
}

// decide is the initiator's second phase: propagate commit/abort down the
// tree and apply it locally.
func (e *Engine) decide(commit bool) {
	e.propagateDecision(commit)
	e.applyDecision(commit)
	e.env.CheckpointingDone(e.trig, commit)
}

func (e *Engine) propagateDecision(commit bool) {
	for _, j := range e.children {
		e.env.Send(&protocol.Message{
			Kind:    protocol.KindDecision,
			From:    e.id,
			To:      j,
			Trigger: e.trig,
			Commit:  commit,
		})
	}
}

func (e *Engine) handleDecision(m *protocol.Message) {
	if !e.inProgress || m.Trigger != e.trig {
		return
	}
	e.propagateDecision(m.Commit)
	e.applyDecision(m.Commit)
}

func (e *Engine) applyDecision(commit bool) {
	trig := e.trig
	if e.tookCkpt {
		if commit {
			e.env.MakePermanent(trig)
			e.env.Trace(trace.KindPermanent, -1, "trigger=%v", trig)
			copy(e.sentAtCkpt, e.pendingSentAtCkpt)
		} else {
			e.env.DropTentative(trig)
			e.env.Trace(trace.KindAbort, -1, "drop trigger=%v", trig)
			// The checkpoint evaporated: its interval merges back.
			for i, v := range e.savedRecvSince {
				e.recvSince[i] += v
			}
		}
	}
	e.tookCkpt = false
	e.inProgress = false
	e.initiator = false
	e.parent = -1
	e.children = e.children[:0]
	e.awaiting = 0
	e.env.UnblockApp()
	if commit {
		e.env.Trace(trace.KindCommit, -1, "trigger=%v", trig)
	}
}
