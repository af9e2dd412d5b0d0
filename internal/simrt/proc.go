package simrt

import (
	"fmt"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/des"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// queuedSend is a computation send deferred because the process is blocked
// (blocking algorithms) or disconnected.
type queuedSend struct {
	to      protocol.ProcessID
	payload []byte
}

// Phase is a process's position in the crash/recovery lifecycle. A healthy
// process is PhaseLive; a fail-stop moves it to PhaseDown; the recovery
// executor walks it down → restoring (state reloaded from the stable
// store) → replaying (channel state redelivered) → live. The intermediate
// phases are traversed synchronously inside one recovery event, so other
// simulation events only ever observe live or down.
type Phase int

// Lifecycle phases.
const (
	PhaseLive Phase = iota
	PhaseDown
	PhaseRestoring
	PhaseReplaying
)

// String names the phase.
func (ph Phase) String() string {
	switch ph {
	case PhaseLive:
		return "live"
	case PhaseDown:
		return "down"
	case PhaseRestoring:
		return "restoring"
	case PhaseReplaying:
		return "replaying"
	default:
		return "phase?"
	}
}

// Proc is one simulated process: it owns the engine, the checkpoint
// stores, the per-peer counters, and implements protocol.Env.
type Proc struct {
	c  *Cluster
	id protocol.ProcessID

	engine protocol.Engine
	ckpt   *checkpoint.Keeper

	sentTo   []uint64
	recvFrom []uint64
	seq      uint64

	// logged mirrors sentTo for computation messages when the cluster
	// runs with MessageLogging: the sender-based message log, counting
	// determinants per destination. It survives rollbacks (the log is the
	// recovery source, not part of the rolled-back state) and, because
	// the replayed messages are content-free counter deltas, the counts
	// are the entire log.
	logged []uint64

	// epoch fences in-flight deliveries across a rollback: every send
	// captures the sender's and receiver's epochs, and a delivery whose
	// captured epochs no longer match is dropped as stale (it belongs to
	// the discarded pre-rollback execution). Recovery bumps the epoch of
	// every process it restores.
	epoch uint64

	ticker    *des.Ticker
	busyUntil time.Duration

	phase     Phase
	downSince time.Duration // crash instant while down; -1 otherwise

	blocked      bool
	blockedSince time.Duration
	disconnected bool
	dozing       bool
	wakeups      uint64
	queue        []queuedSend
	inbox        []*protocol.Message // computation messages buffered while disconnected
}

var _ protocol.Env = (*Proc)(nil)

func newProc(c *Cluster, id protocol.ProcessID) (*Proc, error) {
	st, err := c.newStore(id)
	if err != nil {
		return nil, fmt.Errorf("simrt: P%d store: %w", id, err)
	}
	pay, err := c.newPayload(id)
	if err != nil {
		return nil, fmt.Errorf("simrt: P%d payload store: %w", id, err)
	}
	return &Proc{
		c:         c,
		id:        id,
		ckpt:      checkpoint.NewKeeper(id, st, pay, c.cfg.Images),
		downSince: -1,
	}, nil
}

// down reports whether the process is anywhere off the live phase; a
// non-live process neither sends nor receives.
func (p *Proc) down() bool { return p.phase != PhaseLive }

// growCounter extends a truncated per-peer counter vector so index i is
// addressable. Entries past the stored length are semantically 0
// (protocol.CounterAt), so a process that only ever talks to peers 0..k
// carries k+1 counters instead of N — the min-process property applied
// to runtime state. It grows in one step, with capacity doubling up to
// the process count n, so first contact with a far peer costs at most one
// allocation and no vector reserves room for a peer that cannot exist.
func growCounter(v []uint64, i, n int) []uint64 {
	l := len(v)
	if i < l {
		return v
	}
	if i >= cap(v) {
		grown := make([]uint64, l, max(i+1, min(2*cap(v), n)))
		copy(grown, v)
		v = grown
	}
	v = v[:i+1]
	clear(v[l:])
	return v
}

// Engine returns the process's checkpointing engine.
func (p *Proc) Engine() protocol.Engine { return p.engine }

// Checkpoints returns the process's checkpoint lifecycle.
func (p *Proc) Checkpoints() *checkpoint.Keeper { return p.ckpt }

// Stable returns the process's stable checkpoint store (at the MSS).
func (p *Proc) Stable() checkpoint.Store { return p.ckpt.Stable }

// Mutable returns the process's mutable checkpoint store.
func (p *Proc) Mutable() *checkpoint.MutableStore { return p.ckpt.Mutable() }

// Blocked reports whether the computation is currently blocked.
func (p *Proc) Blocked() bool { return p.blocked }

// Disconnected reports whether the host is voluntarily disconnected.
func (p *Proc) Disconnected() bool { return p.disconnected }

// MaybeInitiate starts a checkpointing instance if allowed: the process
// must not already be inside one and, under SingleInitiation, no other
// instance may be in flight. It reports whether an initiation started.
func (p *Proc) MaybeInitiate() bool {
	if p.engine.InProgress() || p.c.cfg.SingleInitiation && p.c.owner >= 0 {
		return false
	}
	p.c.owner = p.id
	if err := p.engine.Initiate(); err != nil {
		p.c.owner = -1
		return false
	}
	p.armRequestTimeout()
	return true
}

// partialAborter is the Kim–Park refinement for timeouts with a known
// fail-stopped process.
type partialAborter interface {
	AbortPartialStrict(failed protocol.ProcessID) error
}

// armRequestTimeout schedules the §3.6 give-up timer for the instance this
// process just initiated. The timer is a no-op if the instance terminated
// (either way) before it fires, or if the initiator itself crashed.
func (p *Proc) armRequestTimeout() {
	if p.c.cfg.RequestTimeout <= 0 {
		return
	}
	a, ok := p.engine.(protocol.Initiator)
	if !ok || !a.Initiating() {
		// Engine without an abort path, or the instance already terminated
		// synchronously (dependency-free initiator).
		return
	}
	trig := a.OwnTrigger()
	ep := p.epoch
	p.c.sim.Schedule(p.c.cfg.RequestTimeout, func() {
		p.requestTimeout(a, trig, ep)
	})
}

func (p *Proc) requestTimeout(a protocol.Initiator, trig protocol.Trigger, ep uint64) {
	if p.down() || p.epoch != ep || !a.Initiating() || a.OwnTrigger() != trig {
		// Crashed, rolled back (the aborter references a discarded
		// engine), or the instance already terminated.
		return
	}
	p.c.metrics.TimeoutAborts++
	p.Trace(trace.KindAbort, -1, "request timeout trigger=%v", trig)
	if p.c.cfg.PartialAbortOnFailure {
		if pa, ok := p.engine.(partialAborter); ok {
			if failed := p.c.firstFailed(); failed >= 0 {
				p.check("partial abort", pa.AbortPartialStrict(failed))
				return
			}
		}
	}
	p.check("timeout abort", a.AbortCurrent())
}

// --- application side ---

func (p *Proc) sendApp(to protocol.ProcessID, payload []byte) {
	if p.down() {
		return
	}
	if p.blocked || p.disconnected || p.dozing {
		p.queue = append(p.queue, queuedSend{to: to, payload: payload})
		return
	}
	m := p.c.newMessage()
	m.From, m.To, m.Payload = p.id, to, payload
	p.engine.PrepareSend(m)
	p.seq++
	m.Seq = p.seq
	m.Size = compMsgBytes
	p.sentTo = growCounter(p.sentTo, to, p.c.cfg.N)
	p.sentTo[to]++
	if p.c.cfg.MessageLogging {
		// Sender-based message logging: the determinant (destination,
		// order) is recorded before the message touches the network, so
		// everything the receiver could possibly have consumed is in the
		// log when it fails.
		p.logged = growCounter(p.logged, to, p.c.cfg.N)
		p.logged[to]++
	}
	p.c.metrics.CompMsgs++
	p.c.metrics.CompBytes += uint64(m.Size)
	if p.Tracing() {
		// Guarded at the call site: variadic Trace boxes its arguments
		// even when the log is nil, which is the hot path's only
		// avoidable allocation.
		p.Trace(trace.KindSend, to, "csn=%d trigger=%v", m.CSN, m.Trigger)
	}
	p.c.send(p, to, m)
}

func (p *Proc) flushQueue() {
	q := p.queue
	p.queue = nil
	for _, s := range q {
		p.sendApp(s.to, s.payload)
	}
}

// receive handles an arriving message, honouring local busy time (a
// mutable-checkpoint memory copy makes the host briefly unresponsive),
// doze-mode wakeup latency, and fail-stop semantics.
func (p *Proc) receive(m *protocol.Message) {
	if p.down() {
		return // fail-stop: messages to a crashed host are lost
	}
	now := p.c.sim.Now()
	if p.dozing {
		// §1: the MH in doze mode is awakened on receiving a message.
		p.wakeups++
		p.busyUntil = now + dozeWakeLatency
		p.Trace(trace.KindNote, m.From, "wakeup for %v", m.Kind)
	}
	if now < p.busyUntil {
		ep := p.epoch
		p.c.sim.ScheduleAt(p.busyUntil, func() {
			if p.epoch != ep {
				p.c.metrics.StaleDropped++
				return
			}
			p.deliverNow(m)
		})
		return
	}
	p.deliverNow(m)
}

func (p *Proc) deliverNow(m *protocol.Message) {
	if p.down() {
		return
	}
	if p.disconnected && m.Kind == protocol.KindComputation {
		// §2.2: the MSS buffers computation messages for a disconnected MH.
		p.inbox = append(p.inbox, m)
		return
	}
	p.engine.HandleMessage(m)
	// Engines consume messages synchronously and retain at most the
	// immutable data they point at (MR snapshot words, payload bytes), so
	// the struct itself can be recycled the moment handling returns.
	p.c.releaseMessage(m)
}

// --- protocol.Env implementation ---

// ID implements protocol.Env.
func (p *Proc) ID() protocol.ProcessID { return p.id }

// N implements protocol.Env.
func (p *Proc) N() int { return p.c.cfg.N }

// Now implements protocol.Env.
func (p *Proc) Now() time.Duration { return p.c.sim.Now() }

// NewMessage implements protocol.MessageSource: engines take their
// system-message structs from the cluster's free list, which deliverNow
// refills, so the list grows with the messages in flight at once, not
// with every message sent.
func (p *Proc) NewMessage() *protocol.Message { return p.c.newMessage() }

// Send implements protocol.Env for system messages.
func (p *Proc) Send(m *protocol.Message) {
	m.From = p.id
	m.Size = sysMsgBytes
	p.countSys(m, 1)
	p.c.send(p, m.To, m)
}

// Broadcast implements protocol.Env: one radio transmission reaching every
// other process.
func (p *Proc) Broadcast(m *protocol.Message) {
	m.From = p.id
	m.To = -1
	m.Size = sysMsgBytes
	p.countSys(m, 1)
	epS := p.epoch
	p.c.transport.Broadcast(p.id, m.Size, func(to protocol.ProcessID) {
		dst := p.c.procs[to]
		if p.epoch != epS {
			// The sender rolled back; its broadcast belongs to the
			// discarded execution. (Per-destination receiver epochs are
			// not captured here — the broadcast fan-out closure is shared
			// — but receive() drops on a down process and recovery runs
			// atomically, so a receiver epoch can only change together
			// with the sender's in rollback mode.)
			p.c.metrics.StaleDropped++
			return
		}
		// Each destination gets its own shallow copy so deliveries can be
		// recycled independently (the MR snapshot words are immutable and
		// safely shared).
		cp := p.c.newMessage()
		*cp = *m
		dst.receive(cp)
	})
}

func (p *Proc) countSys(m *protocol.Message, n int) {
	p.c.metrics.SysMsgs += uint64(n)
	p.c.metrics.SysBytes += uint64(n * m.Size)
	rec := p.recordFor(m.Trigger)
	if rec == nil {
		return
	}
	rec.SysMsgs += n
	rec.SysBytes += n * m.Size
	switch m.Kind {
	case protocol.KindRequest:
		rec.Requests += n
	case protocol.KindReply:
		rec.Replies += n
	case protocol.KindCommit, protocol.KindAbort, protocol.KindDecision:
		rec.Commits += n
	}
}

// recordFor resolves the initiation record a message or event belongs to:
// its trigger when present, otherwise the single active initiation.
func (p *Proc) recordFor(trig protocol.Trigger) *InitiationRecord {
	if !trig.IsNone() {
		return p.c.metrics.record(trig, p.c.sim.Now())
	}
	if p.c.owner >= 0 {
		// Attribute trigger-less traffic (e.g. markers) to the in-flight
		// instance.
		for _, t := range p.c.metrics.order {
			rec := p.c.metrics.byTrigger[t]
			if !rec.Done && rec.Initiator == p.c.owner {
				return rec
			}
		}
	}
	return nil
}

// CaptureState implements protocol.Env. The counter vectors are copied at
// their truncated length — a checkpoint costs O(peers talked to), not
// O(N) (see protocol.State).
func (p *Proc) CaptureState() protocol.State {
	return protocol.State{
		Proc:     p.id,
		SentTo:   append([]uint64(nil), p.sentTo...),
		RecvFrom: append([]uint64(nil), p.recvFrom...),
		At:       p.c.sim.Now(),
	}
}

// saveTentative records a tentative checkpoint carrying img and charges
// its stable transfer: the payload receipt's NewBytes — what dedup left
// to actually move — or the fixed checkpointBytes when the run
// has no payload plane. It returns the initiation record the checkpoint
// counts toward, if any.
func (p *Proc) saveTentative(s protocol.State, trig protocol.Trigger, img []byte) *InitiationRecord {
	rcpt, err := p.ckpt.SaveTentative(s, trig, p.c.sim.Now(), img)
	if !p.check("save tentative", err) {
		return nil
	}
	m := p.c.metrics
	m.TotalTentative++
	rec := p.recordFor(trig)
	if rec != nil {
		rec.Tentative++
	}
	transfer := checkpointBytes
	if p.ckpt.Payload != nil {
		m.PayloadSaves++
		m.PayloadLogicalBytes += rcpt.LogicalBytes
		m.PayloadNewBytes += rcpt.NewBytes
		m.PayloadNewChunks += uint64(rcpt.NewChunks)
		m.PayloadDedupChunks += uint64(rcpt.DedupChunks)
		transfer = int(rcpt.NewBytes)
	}
	if !p.disconnected {
		p.c.transport.StableTransfer(p.id, transfer, nil)
	}
	if p.ticker != nil {
		// §5.1: an early checkpoint pushes the next scheduled one out a
		// full interval.
		p.ticker.Reschedule()
	}
	return rec
}

// SaveTentative implements protocol.Env: a pre-copy pause plus the 512 KB
// transfer to stable storage at the MSS (or, with a payload store, the
// deduplicated incremental bytes of the live process image).
func (p *Proc) SaveTentative(s protocol.State, trig protocol.Trigger) {
	p.saveTentative(s, trig, p.ckpt.Image())
	p.busyUntil = p.c.sim.Now() + p.c.cfg.MutableSaveTime
}

// SaveMutable implements protocol.Env: a local memory copy only.
func (p *Proc) SaveMutable(s protocol.State, trig protocol.Trigger) {
	if !p.check("save mutable", p.ckpt.SaveMutable(s, trig, p.c.sim.Now())) {
		return
	}
	p.c.metrics.TotalMutable++
	if rec := p.recordFor(trig); rec != nil {
		rec.Mutable++
	}
	p.busyUntil = p.c.sim.Now() + p.c.cfg.MutableSaveTime
}

// PromoteMutable implements protocol.Env: the stored snapshot, and the
// image frozen with it, cross the wireless medium to stable storage.
func (p *Proc) PromoteMutable(trig protocol.Trigger) {
	rec, img, err := p.ckpt.TakeMutable(trig)
	if !p.check("promote", err) {
		return
	}
	if r := p.saveTentative(rec.State, trig, img); r != nil {
		r.Promoted++
	}
}

// DiscardMutable implements protocol.Env.
func (p *Proc) DiscardMutable(trig protocol.Trigger) {
	if !p.check("discard", p.ckpt.DiscardMutable(trig)) {
		return
	}
	p.c.metrics.TotalDiscarded++
	if rec := p.recordFor(trig); rec != nil {
		rec.Discarded++
	}
}

// MakePermanent implements protocol.Env.
func (p *Proc) MakePermanent(trig protocol.Trigger) {
	if p.check("make permanent", p.ckpt.Commit(trig, p.c.sim.Now())) {
		p.c.metrics.TotalPermanent++
	}
}

// DropTentative implements protocol.Env.
func (p *Proc) DropTentative(trig protocol.Trigger) {
	p.check("drop tentative", p.ckpt.Drop(trig))
}

// check records err, if any, as a cluster error of this process's and
// reports whether there was none.
func (p *Proc) check(what string, err error) bool {
	if err != nil {
		p.c.fail(fmt.Errorf("P%d %s: %w", p.id, what, err))
	}
	return err == nil
}

// DeliverApp implements protocol.Env.
func (p *Proc) DeliverApp(m *protocol.Message) {
	p.recvFrom = growCounter(p.recvFrom, m.From, p.c.cfg.N)
	p.recvFrom[m.From]++
	if p.c.OnDeliver != nil {
		p.c.OnDeliver(p.id, m.From, m.Payload)
	}
}

// BlockApp implements protocol.Env.
func (p *Proc) BlockApp() {
	if p.blocked {
		return
	}
	p.blocked = true
	p.blockedSince = p.c.sim.Now()
	p.Trace(trace.KindBlock, -1, "")
}

// UnblockApp implements protocol.Env.
func (p *Proc) UnblockApp() {
	if !p.blocked {
		return
	}
	p.blocked = false
	blockedFor := p.c.sim.Now() - p.blockedSince
	if rec := p.recordFor(protocol.NoTrigger); rec != nil {
		rec.BlockedTime += blockedFor
	}
	p.Trace(trace.KindUnblock, -1, "blocked=%v", blockedFor)
	p.flushQueue()
}

// CheckpointingDone implements protocol.Env.
func (p *Proc) CheckpointingDone(trig protocol.Trigger, committed bool) {
	rec := p.c.metrics.record(trig, p.c.sim.Now())
	rec.End = p.c.sim.Now()
	rec.Done = true
	rec.Committed = committed
	if p.c.owner == p.id {
		p.c.owner = -1
	}
}

// Trace implements protocol.Env.
func (p *Proc) Trace(kind trace.Kind, peer int, format string, args ...any) {
	if p.c.cfg.Trace == nil {
		return
	}
	p.c.cfg.Trace.Addf(p.c.sim.Now(), kind, p.id, peer, format, args...)
}

// Tracing implements protocol.Env.
func (p *Proc) Tracing() bool { return p.c.cfg.Trace != nil }

// --- mobility operations (§2.2) ---

// Disconnect voluntarily disconnects the host: it leaves a
// disconnect_checkpoint at its MSS (one stable transfer) and stops sending
// and receiving computation messages.
func (p *Proc) Disconnect() {
	if p.disconnected {
		return
	}
	p.disconnected = true
	p.c.transport.StableTransfer(p.id, checkpointBytes, nil)
	p.Trace(trace.KindNote, -1, "disconnect")
}

// Reconnect ends the disconnection: buffered computation messages are
// processed in order.
func (p *Proc) Reconnect() {
	if !p.disconnected {
		return
	}
	p.disconnected = false
	p.Trace(trace.KindNote, -1, "reconnect (%d buffered)", len(p.inbox))
	buffered := p.inbox
	p.inbox = nil
	for _, m := range buffered {
		p.receive(m)
	}
	p.flushQueue()
}

// --- failure injection and doze mode (§1, §3.6) ---

// Fail crashes the mobile host (fail-stop): every volatile structure —
// including mutable checkpoints — is lost, in-flight and future messages
// to it are dropped, and it generates no further traffic. Stable
// checkpoints survive at the MSS.
func (p *Proc) Fail() {
	if p.down() {
		return
	}
	p.phase = PhaseDown
	p.downSince = p.c.sim.Now()
	p.c.metrics.Crashes++
	p.ckpt.Crash()
	p.queue = nil
	p.inbox = nil
	if p.ticker != nil {
		p.ticker.Stop()
	}
	if p.c.owner == p.id {
		// A crashed initiator can never terminate its instance; under
		// SingleInitiation the cluster would otherwise be deadlocked for
		// the rest of the run.
		p.c.owner = -1
	}
	p.Trace(trace.KindNote, -1, "fail-stop")
}

// Failed reports whether the host is off the live phase (down or mid
// recovery).
func (p *Proc) Failed() bool { return p.down() }

// Phase reports the process's lifecycle phase.
func (p *Proc) Phase() Phase { return p.phase }

// Doze puts the host into the paper's doze mode: it powers down and is
// awakened only by an arriving message, each wakeup costing the
// configured latency. Application sends are deferred until Wake.
func (p *Proc) Doze() {
	if p.dozing || p.down() {
		return
	}
	p.dozing = true
	p.Trace(trace.KindNote, -1, "doze")
}

// Wake returns the host to active mode and flushes deferred sends.
func (p *Proc) Wake() {
	if !p.dozing {
		return
	}
	p.dozing = false
	p.Trace(trace.KindNote, -1, "wake")
	p.flushQueue()
}

// Dozing reports whether the host is in doze mode.
func (p *Proc) Dozing() bool { return p.dozing }

// Wakeups reports how many times a message awakened this host from doze
// mode (the energy cost the paper's minimal-synchronization goal bounds).
func (p *Proc) Wakeups() uint64 { return p.wakeups }
