package core_test

import (
	"fmt"
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/core"
	"mutablecp/internal/dyadic"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// world is a deterministic in-memory test harness for engines: every
// message sits in an explicit queue until the test delivers it, which lets
// scenario tests reproduce the exact interleavings of the paper's figures.
// Per-channel FIFO is enforced on delivery.
type world struct {
	t       *testing.T
	n       int
	engines []*core.Engine
	envs    []*fakeEnv
	queue   []*protocol.Message
}

// fakeEnv implements protocol.Env against the world.
type fakeEnv struct {
	w  *world
	id protocol.ProcessID

	stable  *checkpoint.StableStore
	mutable *checkpoint.MutableStore

	sentTo   []uint64
	recvFrom []uint64

	// sendLog[k] records, for each computation message this process sent,
	// the destination; sendAfterCkpt marks whether it was sent after the
	// latest stable checkpoint at send time (for the minimality oracle).
	tentativeTaken int
	mutableTaken   int
	promoted       int
	discarded      int
	doneCount      int
	lastCommitted  bool
	blocked        bool
	// announced counts the frames this process sent announcing its own
	// commit; announce checked each against the stable store.
	announced int
}

func newFakeEnv(w *world, id, n int) *fakeEnv {
	return &fakeEnv{
		w:        w,
		id:       id,
		stable:   checkpoint.NewStableStore(id),
		mutable:  checkpoint.NewMutableStore(id),
		sentTo:   make([]uint64, n),
		recvFrom: make([]uint64, n),
	}
}

func newWorld(t *testing.T, n int) *world {
	t.Helper()
	w := &world{t: t, n: n}
	for i := 0; i < n; i++ {
		env := newFakeEnv(w, i, n)
		w.envs = append(w.envs, env)
		w.engines = append(w.engines, core.New(env))
	}
	return w
}

// send issues a computation message and leaves it in the queue.
func (w *world) send(from, to protocol.ProcessID) *protocol.Message {
	w.t.Helper()
	if from == to {
		w.t.Fatalf("self send %d", from)
	}
	m := &protocol.Message{From: from, To: to}
	w.engines[from].PrepareSend(m)
	if testing.Verbose() {
		w.t.Logf("P%d send to=%d csn=%d trigger=%v earlier=%v", from, to, m.CSN, m.Trigger, m.Earlier)
	}
	w.envs[from].sentTo[to]++
	w.queue = append(w.queue, m)
	return m
}

// deliver removes the given message from the queue and hands it to its
// destination, enforcing per-channel FIFO for computation messages.
func (w *world) deliver(m *protocol.Message) {
	w.t.Helper()
	idx := -1
	for i, q := range w.queue {
		if q == m {
			idx = i
			break
		}
		if q.Kind == protocol.KindComputation && m.Kind == protocol.KindComputation &&
			q.From == m.From && q.To == m.To {
			w.t.Fatalf("FIFO violation: delivering %+v before earlier queued message on same channel", m)
		}
	}
	if idx < 0 {
		w.t.Fatalf("message not queued: %+v", m)
	}
	w.queue = append(w.queue[:idx], w.queue[idx+1:]...)
	w.engines[m.To].HandleMessage(m)
}

// deliverMatching delivers the earliest queued message matching pred and
// returns it; nil if none matched.
func (w *world) deliverMatching(pred func(*protocol.Message) bool) *protocol.Message {
	for _, m := range w.queue {
		if pred(m) {
			w.deliver(m)
			return m
		}
	}
	return nil
}

// pump delivers queued messages in order until the queue drains.
func (w *world) pump() {
	for len(w.queue) > 0 {
		w.deliver(w.queue[0])
	}
}

// pumpSystem delivers only system messages (in order) until none remain,
// leaving computation messages in flight.
func (w *world) pumpSystem() {
	for {
		m := w.deliverMatching(func(m *protocol.Message) bool { return m.Kind != protocol.KindComputation })
		if m == nil {
			return
		}
	}
}

// queuedWeight sums the weight carried by in-flight messages.
func (w *world) queuedWeight() *dyadic.Sum {
	var total dyadic.Sum
	for _, m := range w.queue {
		total.Add(m.Weight)
	}
	return &total
}

// line returns the latest permanent checkpoint state per process.
func (w *world) line() map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, w.n)
	for i, env := range w.envs {
		out[i] = env.stable.Permanent().State
	}
	return out
}

var _ protocol.Env = (*fakeEnv)(nil)

func (e *fakeEnv) ID() protocol.ProcessID { return e.id }
func (e *fakeEnv) N() int                 { return e.w.n }
func (e *fakeEnv) Now() time.Duration     { return 0 }

func (e *fakeEnv) Send(m *protocol.Message) {
	m.From = e.id
	e.announce(m)
	e.w.queue = append(e.w.queue, m)
}

func (e *fakeEnv) Broadcast(m *protocol.Message) {
	m.From = e.id
	e.announce(m)
	for to := 0; to < e.w.n; to++ {
		if to == e.id {
			continue
		}
		cp := *m
		cp.To = to
		e.w.queue = append(e.w.queue, &cp)
	}
}

// announce fails the test when m announces this process's own commit
// while its stable store still holds that instance's tentative
// checkpoint: the decision is logged before it is announced. A partial
// commit that excludes the initiator announces its abort instead.
func (e *fakeEnv) announce(m *protocol.Message) {
	if m.Kind != protocol.KindCommit || m.Trigger.Pid != e.id || m.MR.Flag(e.id) {
		return
	}
	if _, pending := e.stable.Tentative(m.Trigger); pending {
		e.w.t.Fatalf("P%d announces the commit of %v before making its checkpoint permanent", e.id, m.Trigger)
	}
	e.announced++
}

func (e *fakeEnv) CaptureState() protocol.State {
	return protocol.State{
		Proc:     e.id,
		SentTo:   append([]uint64(nil), e.sentTo...),
		RecvFrom: append([]uint64(nil), e.recvFrom...),
	}
}

func (e *fakeEnv) SaveTentative(s protocol.State, trig protocol.Trigger) {
	if err := e.stable.SaveTentative(s, trig, 0); err != nil {
		e.w.t.Fatalf("P%d SaveTentative: %v", e.id, err)
	}
	e.tentativeTaken++
}

func (e *fakeEnv) SaveMutable(s protocol.State, trig protocol.Trigger) {
	if err := e.mutable.Save(s, trig, 0); err != nil {
		e.w.t.Fatalf("P%d SaveMutable: %v", e.id, err)
	}
	e.mutableTaken++
}

func (e *fakeEnv) PromoteMutable(trig protocol.Trigger) {
	rec, err := e.mutable.Take(trig)
	if err != nil {
		e.w.t.Fatalf("P%d PromoteMutable: %v", e.id, err)
	}
	if err := e.stable.SaveTentative(rec.State, trig, 0); err != nil {
		e.w.t.Fatalf("P%d PromoteMutable save: %v", e.id, err)
	}
	e.promoted++
	e.tentativeTaken++
}

func (e *fakeEnv) DiscardMutable(trig protocol.Trigger) {
	if _, err := e.mutable.Take(trig); err != nil {
		e.w.t.Fatalf("P%d DiscardMutable: %v", e.id, err)
	}
	e.discarded++
}

func (e *fakeEnv) MakePermanent(trig protocol.Trigger) {
	if err := e.stable.MakePermanent(trig, 0); err != nil {
		e.w.t.Fatalf("P%d MakePermanent: %v", e.id, err)
	}
}

func (e *fakeEnv) DropTentative(trig protocol.Trigger) {
	if err := e.stable.DropTentative(trig); err != nil {
		e.w.t.Fatalf("P%d DropTentative: %v", e.id, err)
	}
}

func (e *fakeEnv) DeliverApp(m *protocol.Message) { e.recvFrom[m.From]++ }

func (e *fakeEnv) BlockApp()   { e.blocked = true }
func (e *fakeEnv) UnblockApp() { e.blocked = false }

func (e *fakeEnv) CheckpointingDone(trig protocol.Trigger, committed bool) {
	e.doneCount++
	e.lastCommitted = committed
}

func (e *fakeEnv) Trace(kind trace.Kind, peer int, format string, args ...any) {
	if testing.Verbose() {
		e.w.t.Logf("P%d %v peer=%d %s", e.id, kind, peer, fmt.Sprintf(format, args...))
	}
}

func (e *fakeEnv) Tracing() bool { return testing.Verbose() }
