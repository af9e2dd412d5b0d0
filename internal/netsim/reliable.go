package netsim

// Reliable restores the reliable FIFO channels the Cao–Singhal
// computation model assumes (§2.1) on top of an unreliable transport —
// typically Faulty injecting drops, duplicates, and jitter.
//
// It is a classic ARQ sublayer: every ordered process pair is a channel
// with its own sequence numbers; receivers deliver strictly in sequence
// (buffering out-of-order arrivals, suppressing duplicates) and return
// cumulative acknowledgements; senders keep unacked frames and retransmit
// the lowest one on a timeout with exponential backoff up to a cap. All
// timers run on the des simulator, so runs stay bit-reproducible.
//
// Because a peer may have fail-stopped or be behind a partition for
// longer than any backoff, a retry budget bounds the event count: after
// maxRetries retransmissions of the same frame the channel gives up and
// discards its backlog (the checkpointing layer above handles the loss
// via the §3.6 timeout abort). Without the budget, Drain/RunAll would
// never terminate against a crashed peer.
//
// Giving up is a verdict on the backlog, not on the peer: the next send
// reopens the channel under a fresh incarnation (generation), exactly
// like a transport connection re-established after a reset. Receivers
// adopt whichever generation is newest — frames and acks from an older
// one are discarded on arrival — so a peer that was merely slow (or has
// since been crash-recovered) resumes cleanly instead of staying
// unreachable forever.

import (
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/protocol"
	"mutablecp/internal/relnet"
)

// The ARQ's fixed costs and give-up budget. The timeouts are relnet's.
const (
	// maxRetries is the per-frame retransmission budget before the channel
	// gives up and discards its backlog (a later send reopens it). With
	// relnet.BaseRTO/MaxRTO the give-up horizon is ~30 s of persistent
	// silence, far beyond any partition window the gauntlet uses, and the
	// chance of 17 consecutive independent losses at 20% drop is ~10^-12.
	maxRetries = 16
	// headerBytes is the per-frame ARQ overhead added to data frames
	// (seq + channel ids + kind).
	headerBytes = 12
	// ackBytes is the size of an acknowledgement frame.
	ackBytes = 16
)

// ReliableMetrics counts the sublayer's work. Totals only; never fed
// back into protocol decisions.
type ReliableMetrics struct {
	DataFrames      uint64 // first transmissions of data frames
	Retransmissions uint64
	AcksSent        uint64
	DupsSuppressed  uint64 // duplicate data frames discarded by receivers
	Buffered        uint64 // out-of-order arrivals parked for resequencing
	GaveUp          uint64 // backlogs discarded after an exhausted retry budget
	Reopened        uint64 // given-up channels reopened by a later send
	StaleFrames     uint64 // frames/acks from a superseded channel incarnation
	ChannelResets   uint64 // channel pairs re-established by ResetPeer
}

// sendChan couples the transport-agnostic Outbox (sequence numbers,
// backlog, cumulative acks — see internal/relnet) with the DES-specific
// retransmission machinery: the virtual-time timer and its backoff.
type sendChan struct {
	from, to protocol.ProcessID
	out      relnet.Outbox[des.Firer]
	rto      time.Duration
	retries  int
	timerID  des.EventID
	armed    bool
	dead     bool // gave up; the next send reopens a fresh incarnation
}

// Reliable is the ARQ decorator. It implements Transport.
type Reliable struct {
	sim   *des.Simulator
	inner Transport
	n     int

	send map[[2]protocol.ProcessID]*sendChan
	recv map[[2]protocol.ProcessID]*relnet.Inbox[des.Firer]

	// Metrics is exported for reports.
	Metrics ReliableMetrics
}

var _ Transport = (*Reliable)(nil)
var _ ExactlyOnce = (*Reliable)(nil)

// DeliversExactlyOnce marks the ARQ layer as duplicate-free toward the
// runtime: whatever the inner transport drops or duplicates, onData's
// sequence check invokes each deliver callback at most once.
func (r *Reliable) DeliversExactlyOnce() {}

// NewReliable wraps inner with the ARQ sublayer for n processes.
func NewReliable(sim *des.Simulator, inner Transport, n int) *Reliable {
	return &Reliable{
		sim:   sim,
		inner: inner,
		n:     n,
		send:  make(map[[2]protocol.ProcessID]*sendChan),
		recv:  make(map[[2]protocol.ProcessID]*relnet.Inbox[des.Firer]),
	}
}

func (r *Reliable) sendChanFor(from, to protocol.ProcessID) *sendChan {
	key := [2]protocol.ProcessID{from, to}
	sc := r.send[key]
	if sc == nil {
		sc = &sendChan{from: from, to: to, rto: relnet.BaseRTO}
		r.send[key] = sc
	}
	return sc
}

func (r *Reliable) recvChanFor(from, to protocol.ProcessID) *relnet.Inbox[des.Firer] {
	key := [2]protocol.ProcessID{from, to}
	rc := r.recv[key]
	if rc == nil {
		rc = new(relnet.Inbox[des.Firer])
		r.recv[key] = rc
	}
	return rc
}

// Unicast implements Transport: the message is queued on its channel and
// delivered to the destination exactly once, in send order, no matter
// what the inner transport loses, duplicates, or reorders.
func (r *Reliable) Unicast(from, to protocol.ProcessID, size int, deliver des.Firer) {
	sc := r.sendChanFor(from, to)
	if sc.dead {
		r.reopen(sc)
	}
	f := sc.out.Push(size, deliver)
	r.Metrics.DataFrames++
	r.transmit(sc, f)
	r.arm(sc)
}

// Broadcast implements Transport: every destination's copy takes the next
// slot on its own channel (in process order, synchronously, so the FIFO
// position is fixed at call time), carried by one inner broadcast.
// Retransmissions fall back to per-destination unicasts.
func (r *Reliable) Broadcast(from protocol.ProcessID, size int, deliver func(to protocol.ProcessID)) {
	seqs := make([]uint64, r.n)
	live := make([]bool, r.n)
	for to := 0; to < r.n; to++ {
		if to == from {
			continue
		}
		sc := r.sendChanFor(from, to)
		if sc.dead {
			r.reopen(sc)
		}
		to := to
		f := sc.out.Push(size, des.Func(func() { deliver(to) }))
		seqs[to] = f.Seq
		live[to] = true
		r.Metrics.DataFrames++
	}
	gens := make([]uint64, r.n)
	for to := 0; to < r.n; to++ {
		if live[to] {
			gens[to] = r.sendChanFor(from, protocol.ProcessID(to)).out.Gen()
		}
	}
	r.inner.Broadcast(from, size+headerBytes, func(to protocol.ProcessID) {
		if live[to] {
			r.onData(from, to, gens[to], seqs[to], des.Func(func() { deliver(to) }))
		}
	})
	for to := 0; to < r.n; to++ {
		if live[to] {
			r.arm(r.sendChanFor(from, to))
		}
	}
}

// transmit sends one data frame through the inner transport.
func (r *Reliable) transmit(sc *sendChan, f relnet.OutFrame[des.Firer]) {
	from, to, gen, seq, deliver := sc.from, sc.to, sc.out.Gen(), f.Seq, f.Payload
	r.inner.Unicast(from, to, f.Size+headerBytes, des.Func(func() {
		r.onData(from, to, gen, seq, deliver)
	}))
}

// onData runs at the destination when a data frame arrives. The verdict
// logic — staleness, generation adoption, resequencing, duplicate
// suppression — lives in relnet.Inbox; this wrapper only maps
// verdicts to metrics and issues the cumulative ack.
func (r *Reliable) onData(from, to protocol.ProcessID, gen, seq uint64, deliver des.Firer) {
	rc := r.recvChanFor(from, to)
	switch rc.Accept(gen, seq, deliver, runDeliver) {
	case relnet.VerdictStale:
		// Its sequence space is dead and the sender already discarded the
		// backlog, so no ack either.
		r.Metrics.StaleFrames++
		return
	case relnet.VerdictDuplicate:
		r.Metrics.DupsSuppressed++
	case relnet.VerdictBuffered:
		r.Metrics.Buffered++
	}
	// Cumulative ack: everything below Cum has been delivered.
	cum := rc.Cum()
	r.Metrics.AcksSent++
	r.inner.Unicast(to, from, ackBytes, des.Func(func() {
		r.onAck(from, to, gen, cum)
	}))
}

// runDeliver fires one delivered frame (the Inbox payload for the DES
// instantiation is the deliver event itself).
func runDeliver(f des.Firer) { f.Fire() }

// onAck runs at the sender when a cumulative ack arrives.
func (r *Reliable) onAck(from, to protocol.ProcessID, gen, cum uint64) {
	sc := r.sendChanFor(from, to)
	progress, stale := sc.out.Ack(gen, cum)
	if stale {
		r.Metrics.StaleFrames++
		return
	}
	if !progress {
		return
	}
	// Fresh evidence the peer is alive: reset the backoff.
	sc.rto = relnet.BaseRTO
	sc.retries = 0
	r.disarm(sc)
	r.arm(sc)
}

// arm starts the retransmission timer if frames are outstanding.
func (r *Reliable) arm(sc *sendChan) {
	if sc.armed || sc.out.Len() == 0 || sc.dead {
		return
	}
	sc.armed = true
	sc.timerID = r.sim.Schedule(sc.rto, func() {
		sc.armed = false
		r.onTimeout(sc)
	})
}

func (r *Reliable) disarm(sc *sendChan) {
	if sc.armed {
		r.sim.Cancel(sc.timerID)
		sc.armed = false
	}
}

// onTimeout retransmits the lowest unacked frame with exponential backoff,
// or gives the backlog up once the budget is spent (the next send reopens
// the channel under a fresh incarnation).
func (r *Reliable) onTimeout(sc *sendChan) {
	oldest, ok := sc.out.Oldest()
	if !ok {
		return
	}
	if sc.retries >= maxRetries {
		sc.dead = true
		sc.out.Discard()
		r.Metrics.GaveUp++
		return
	}
	sc.retries++
	r.Metrics.Retransmissions++
	r.transmit(sc, oldest)
	sc.rto *= 2
	if sc.rto > relnet.MaxRTO {
		sc.rto = relnet.MaxRTO
	}
	r.arm(sc)
}

// StableTransfer implements Transport: the host-to-MSS channel is local
// and reliable, so it passes straight through.
func (r *Reliable) StableTransfer(from protocol.ProcessID, size int, done des.Firer) {
	r.inner.StableTransfer(from, size, done)
}

var _ PeerResetter = (*Reliable)(nil)

// ResetPeer re-establishes every channel to and from p: the transport
// analog of the recovery layer's epoch fence. A restarting process gets
// fresh sequence spaces on all its channel pairs — in particular, sender
// halves that gave the crashed peer up for dead (sc.dead) come back to
// life, and receiver halves forget resequencing gaps left by frames the
// ARQ abandoned mid-outage. Both halves live in this object and are reset
// synchronously under one new generation; frames and acks still in flight
// from the old incarnation carry the old generation and are discarded on
// arrival. Whatever payload they carried is the recovery executor's
// problem (channel-deficit or log replay), not the ARQ's.
func (r *Reliable) ResetPeer(p protocol.ProcessID) {
	for x := 0; x < r.n; x++ {
		if protocol.ProcessID(x) == p {
			continue
		}
		r.resetPair(protocol.ProcessID(x), p)
		r.resetPair(p, protocol.ProcessID(x))
	}
}

// reopen starts a fresh incarnation of a given-up channel: the receiver
// half adopts the new generation when its first frame arrives.
func (r *Reliable) reopen(sc *sendChan) {
	sc.out.Reopen(sc.out.Gen() + 1) // backlog was discarded at give-up
	sc.rto = relnet.BaseRTO
	sc.retries = 0
	sc.dead = false
	r.Metrics.Reopened++
}

// resetPair re-establishes one directed channel. Unlike reopen, both
// halves are reset synchronously (they live in this object), so the new
// incarnation is in effect before any of its frames arrive.
func (r *Reliable) resetPair(from, to protocol.ProcessID) {
	sc := r.sendChanFor(from, to)
	r.disarm(sc)
	sc.out.Discard()
	sc.out.Reopen(sc.out.Gen() + 1)
	sc.rto = relnet.BaseRTO
	sc.retries = 0
	sc.dead = false
	r.recvChanFor(from, to).Reset(sc.out.Gen())
	r.Metrics.ChannelResets++
}
