// Package enginetest provides a deterministic in-memory harness for
// driving protocol engines in unit tests: every message waits in an
// explicit queue until the test delivers it, so scenario tests can force
// exact interleavings. It mirrors the paper's computation model (reliable
// FIFO channels) and records checkpoint activity per process.
package enginetest

import (
	"fmt"
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// World is a deterministic cluster of engines under test control.
type World struct {
	T       *testing.T
	N       int
	Engines []protocol.Engine
	Envs    []*Env
	Queue   []*protocol.Message
}

// NewWorld builds a world of n engines produced by factory.
func NewWorld(t *testing.T, n int, factory func(env protocol.Env) protocol.Engine) *World {
	t.Helper()
	w := &World{T: t, N: n}
	for i := 0; i < n; i++ {
		env := &Env{
			w:        w,
			id:       i,
			Stable:   checkpoint.NewStableStore(i),
			Mutable:  checkpoint.NewMutableStore(i),
			sentTo:   make([]uint64, n),
			recvFrom: make([]uint64, n),
		}
		w.Envs = append(w.Envs, env)
	}
	for i := 0; i < n; i++ {
		w.Engines = append(w.Engines, factory(w.Envs[i]))
	}
	return w
}

// Send issues one computation message and leaves it queued.
func (w *World) Send(from, to protocol.ProcessID) *protocol.Message {
	w.T.Helper()
	if from == to {
		w.T.Fatalf("self send %d", from)
	}
	if w.Envs[from].Blocked {
		w.T.Fatalf("P%d is blocked; test must not send from it", from)
	}
	m := &protocol.Message{From: from, To: to}
	w.Engines[from].PrepareSend(m)
	w.Envs[from].sentTo[to]++
	w.Queue = append(w.Queue, m)
	return m
}

// Deliver hands the given queued message to its destination, enforcing
// per-channel FIFO for computation messages.
func (w *World) Deliver(m *protocol.Message) {
	w.T.Helper()
	idx := -1
	for i, q := range w.Queue {
		if q == m {
			idx = i
			break
		}
		if q.Kind == protocol.KindComputation && m.Kind == protocol.KindComputation &&
			q.From == m.From && q.To == m.To {
			w.T.Fatalf("FIFO violation delivering %+v", m)
		}
	}
	if idx < 0 {
		w.T.Fatalf("message not queued: %+v", m)
	}
	w.Queue = append(w.Queue[:idx], w.Queue[idx+1:]...)
	w.Engines[m.To].HandleMessage(m)
}

// DeliverMatching delivers the earliest queued message matching pred.
func (w *World) DeliverMatching(pred func(*protocol.Message) bool) *protocol.Message {
	for _, m := range w.Queue {
		if pred(m) {
			w.Deliver(m)
			return m
		}
	}
	return nil
}

// Pump delivers queued messages in order until the queue drains.
func (w *World) Pump() {
	for len(w.Queue) > 0 {
		w.Deliver(w.Queue[0])
	}
}

// Line returns the latest permanent checkpoint per process.
func (w *World) Line() map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, w.N)
	for i, env := range w.Envs {
		out[i] = env.Stable.Permanent().State
	}
	return out
}

// Env is the World-backed protocol.Env.
type Env struct {
	w  *World
	id protocol.ProcessID

	Stable  *checkpoint.StableStore
	Mutable *checkpoint.MutableStore

	sentTo   []uint64
	recvFrom []uint64

	TentativeTaken int
	MutableTaken   int
	Promoted       int
	Discarded      int
	DoneCount      int
	LastCommitted  bool
	Blocked        bool
	SysSent        int
}

var _ protocol.Env = (*Env)(nil)

// ID implements protocol.Env.
func (e *Env) ID() protocol.ProcessID { return e.id }

// N implements protocol.Env.
func (e *Env) N() int { return e.w.N }

// Now implements protocol.Env.
func (e *Env) Now() time.Duration { return 0 }

// Send implements protocol.Env.
func (e *Env) Send(m *protocol.Message) {
	m.From = e.id
	e.SysSent++
	e.w.Queue = append(e.w.Queue, m)
}

// Broadcast implements protocol.Env.
func (e *Env) Broadcast(m *protocol.Message) {
	m.From = e.id
	e.SysSent++
	for to := 0; to < e.w.N; to++ {
		if to == e.id {
			continue
		}
		cp := *m
		cp.To = to
		e.w.Queue = append(e.w.Queue, &cp)
	}
}

// CaptureState implements protocol.Env.
func (e *Env) CaptureState() protocol.State {
	return protocol.State{
		Proc:     e.id,
		SentTo:   append([]uint64(nil), e.sentTo...),
		RecvFrom: append([]uint64(nil), e.recvFrom...),
	}
}

// SaveTentative implements protocol.Env.
func (e *Env) SaveTentative(s protocol.State, trig protocol.Trigger) {
	if err := e.Stable.SaveTentative(s, trig, 0); err != nil {
		e.w.T.Fatalf("P%d SaveTentative: %v", e.id, err)
	}
	e.TentativeTaken++
}

// SaveMutable implements protocol.Env.
func (e *Env) SaveMutable(s protocol.State, trig protocol.Trigger) {
	if err := e.Mutable.Save(s, trig, 0); err != nil {
		e.w.T.Fatalf("P%d SaveMutable: %v", e.id, err)
	}
	e.MutableTaken++
}

// PromoteMutable implements protocol.Env.
func (e *Env) PromoteMutable(trig protocol.Trigger) {
	rec, err := e.Mutable.Take(trig)
	if err != nil {
		e.w.T.Fatalf("P%d PromoteMutable: %v", e.id, err)
	}
	if err := e.Stable.SaveTentative(rec.State, trig, 0); err != nil {
		e.w.T.Fatalf("P%d PromoteMutable save: %v", e.id, err)
	}
	e.Promoted++
	e.TentativeTaken++
}

// DiscardMutable implements protocol.Env.
func (e *Env) DiscardMutable(trig protocol.Trigger) {
	if _, err := e.Mutable.Take(trig); err != nil {
		e.w.T.Fatalf("P%d DiscardMutable: %v", e.id, err)
	}
	e.Discarded++
}

// MakePermanent implements protocol.Env.
func (e *Env) MakePermanent(trig protocol.Trigger) {
	if err := e.Stable.MakePermanent(trig, 0); err != nil {
		e.w.T.Fatalf("P%d MakePermanent: %v", e.id, err)
	}
}

// DropTentative implements protocol.Env.
func (e *Env) DropTentative(trig protocol.Trigger) {
	if err := e.Stable.DropTentative(trig); err != nil {
		e.w.T.Fatalf("P%d DropTentative: %v", e.id, err)
	}
}

// DeliverApp implements protocol.Env.
func (e *Env) DeliverApp(m *protocol.Message) { e.recvFrom[m.From]++ }

// BlockApp implements protocol.Env.
func (e *Env) BlockApp() { e.Blocked = true }

// UnblockApp implements protocol.Env.
func (e *Env) UnblockApp() { e.Blocked = false }

// CheckpointingDone implements protocol.Env.
func (e *Env) CheckpointingDone(trig protocol.Trigger, committed bool) {
	e.DoneCount++
	e.LastCommitted = committed
}

// Trace implements protocol.Env.
func (e *Env) Trace(kind trace.Kind, peer int, format string, args ...any) {
	if testing.Verbose() {
		e.w.T.Logf("P%d %v peer=%d %s", e.id, kind, peer, fmt.Sprintf(format, args...))
	}
}

// Tracing implements protocol.Env.
func (e *Env) Tracing() bool { return testing.Verbose() }
