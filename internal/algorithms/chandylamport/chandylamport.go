// Package chandylamport implements the Chandy–Lamport distributed
// snapshot algorithm ([9] in the paper's related work): the earliest
// nonblocking coordinated checkpointing algorithm. Markers flood every
// FIFO channel, all N processes record their state, and each process also
// records per-channel in-transit messages. Message complexity is O(N²) —
// the cost the paper's algorithm avoids.
package chandylamport

import (
	"errors"

	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// ErrSnapshotInProgress is returned by Initiate while a snapshot this
// process started is still incomplete.
var ErrSnapshotInProgress = errors.New("chandylamport: snapshot already in progress")

// roundTrigger names snapshot round r, collected by process pid.
func roundTrigger(pid protocol.ProcessID, r int) protocol.Trigger {
	return protocol.Trigger{Pid: pid, Inum: r}
}

// Engine is the per-process Chandy–Lamport state machine. It assumes (as
// the original algorithm does) that snapshots are initiated one at a time.
type Engine struct {
	env protocol.Env
	id  protocol.ProcessID
	n   int

	round     int // highest snapshot round seen
	collector protocol.ProcessID
	recording bool
	markersIn int
	pending   bool
	pendTrig  protocol.Trigger

	// channelRecording[j] is true while we record channel j->me (between
	// our snapshot and j's marker).
	channelRecording []bool
	// ChannelCounts[j] counts in-transit messages recorded on channel
	// j->me in the current round.
	ChannelCounts []int

	initiating bool
	doneAcks   int
}

var _ protocol.Engine = (*Engine)(nil)

// New returns a Chandy–Lamport engine bound to env.
func New(env protocol.Env) *Engine {
	n := env.N()
	return &Engine{
		env:              env,
		id:               env.ID(),
		n:                n,
		channelRecording: make([]bool, n),
		ChannelCounts:    make([]int, n),
		pendTrig:         protocol.NoTrigger,
	}
}

// Name identifies the algorithm.
func (e *Engine) Name() string { return "chandy-lamport" }

// InProgress reports whether a snapshot is being recorded here.
func (e *Engine) InProgress() bool { return e.recording || e.initiating }

// OwnTrigger returns the trigger of the round this process initiated.
func (e *Engine) OwnTrigger() protocol.Trigger { return roundTrigger(e.collector, e.round) }

// PrepareSend stamps an outgoing computation message (no piggyback needed;
// markers carry all control information).
func (e *Engine) PrepareSend(m *protocol.Message) {
	m.Kind = protocol.KindComputation
	m.Trigger = protocol.NoTrigger
}

// Initiate starts a snapshot: record local state and flood markers.
func (e *Engine) Initiate() error {
	if e.InProgress() {
		return ErrSnapshotInProgress
	}
	e.initiating = true
	e.doneAcks = 0
	e.startRecording(e.round+1, e.id)
	return nil
}

// startRecording takes the local checkpoint for the round and sends a
// marker on every outgoing channel.
func (e *Engine) startRecording(round int, collector protocol.ProcessID) {
	e.round = round
	e.collector = collector
	e.recording = true
	e.markersIn = 0
	trig := roundTrigger(collector, round)
	e.env.Trace(trace.KindInitiate, -1, "round=%d", round)
	st := e.env.CaptureState()
	st.CSN = round
	e.env.SaveTentative(st, trig)
	e.env.Trace(trace.KindTentative, -1, "round=%d", round)
	e.pending = true
	e.pendTrig = trig
	for j := 0; j < e.n; j++ {
		e.channelRecording[j] = j != e.id
		e.ChannelCounts[j] = 0
	}
	for j := 0; j < e.n; j++ {
		if j == e.id {
			continue
		}
		e.env.Send(&protocol.Message{
			Kind:    protocol.KindMarker,
			From:    e.id,
			To:      j,
			CSN:     round,
			Trigger: trig,
		})
	}
}

// HandleMessage dispatches one arriving message.
func (e *Engine) HandleMessage(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindComputation:
		if e.recording && e.channelRecording[m.From] {
			e.ChannelCounts[m.From]++
		}
		e.env.DeliverApp(m)
	case protocol.KindMarker:
		e.handleMarker(m)
	case protocol.KindReply: // completion report to the initiator
		if !e.initiating {
			return
		}
		e.doneAcks++
		if e.doneAcks == e.n-1 {
			e.finish()
		}
	case protocol.KindCommit:
		e.applyCommit()
	default:
	}
}

func (e *Engine) handleMarker(m *protocol.Message) {
	if m.CSN > e.round {
		// First marker of a new round: record state; the channel the
		// marker arrived on is empty past this point.
		e.startRecording(m.CSN, m.Trigger.Pid)
	}
	if m.CSN < e.round || !e.recording {
		return
	}
	e.channelRecording[m.From] = false
	e.markersIn++
	if e.markersIn < e.n-1 {
		return
	}
	// All incoming channels recorded: this process is done.
	e.recording = false
	e.env.Trace(trace.KindNote, -1, "round=%d channels recorded", e.round)
	if e.initiating {
		if e.doneAcks == e.n-1 {
			e.finish()
		}
		return
	}
	// Report completion to the round's collector (the initiator), which
	// commits once every process has recorded all its channels.
	e.env.Send(&protocol.Message{
		Kind:    protocol.KindReply,
		From:    e.id,
		To:      e.collector,
		Trigger: roundTrigger(e.collector, e.round),
	})
}

// finish commits the round: every process turns its recorded state
// permanent.
func (e *Engine) finish() {
	e.initiating = false
	trig := roundTrigger(e.collector, e.round)
	e.env.Trace(trace.KindCommit, -1, "round=%d", e.round)
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
	e.env.MakePermanent(e.pendTrig)
	e.env.Trace(trace.KindPermanent, -1, "round=%d", e.round)
	e.pending = false
	e.pendTrig = protocol.NoTrigger
}
