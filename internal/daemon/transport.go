package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mutablecp/internal/livenet"
	"mutablecp/internal/relnet"
)

// The data plane between daemons: every ordered pair of processes is one
// ARQ channel (relnet's Outbox/Inbox halves, the same state machines the
// DES sublayer runs) carried over a livenet.Link — a re-dialing TCP
// connection with persistent backoff. Frames are wire-encoded protocol
// messages wrapped in envelopes that carry the channel incarnation and
// sequence number; acks ride the reverse-direction link un-ARQ'd (a lost
// ack only delays the cumulative ack the next data frame refreshes).
//
// Incarnations make restarts safe without coordination: every daemon
// picks one at boot (its start time in nanoseconds) and the handshake on
// each fresh connection exchanges them. Both directions of a pair run
// under generation max(incA, incB), which strictly increases when either
// side restarts — the surviving sender reopens its outbox under the new
// generation, renumbering and replaying its unacked backlog, and the
// restarted peer's fresh inbox adopts it cleanly.
//
// One rule governs the outbound connection's lifecycle: an inbound hello
// is proof the peer is alive at that incarnation, so the outbound link
// must lead there now. A restarted peer dials every survivor at boot;
// each survivor, on reading that hello, drops the socket that led to the
// dead incarnation and has its writer dial the new one at once (peerAlive
// below). Without it the survivor's first write after the restart lands
// on the dead socket and is lost, and the frame returns only on the
// retransmit timer. Breaks that no hello announces are repaired lazily by
// the next Send, as before.
//
// Who writes. A frame is written on the goroutine whose event queued
// it: transmit only queues the envelope, and once the event returns its
// runner (the mailbox's loop role: a control, reader or timer goroutine,
// or serve) flushes each session with something queued through
// Link.TryWrite — the replies, commits and the ack for the frame that
// caused them, in one write per peer per event. A reader whose envelope
// delivers nothing flushes the ack alone. The link's send lock is the one
// write token: TryWrite's fill, which takes the whole queue as one
// batch, runs under it and only when the link can take the batch, so an
// envelope leaves sendQ only to be written. Two rules keep the queue
// from stalling. A goroutine that finds the lock held leaves its
// envelopes to the holder, and every goroutine that lets the lock go
// checks sendQ again. What the link cannot take without waiting — no
// connection, or a tail the socket has not taken — kicks the session's
// writer goroutine, which dials and writes the tail with a blocking
// Link.Send and then flushes like any other.
//
// Lock order: Link's send lock → peerSession.mu → Link's state lock.
// TryWrite's fill and the handshake (inside Link.Send/Connect) run under
// the send lock and take s.mu; Link.Reset takes only the state lock,
// which is never held across I/O, so peerAlive may call it under s.mu.
// Nothing under s.mu may call Link.Send, Link.Connect or Link.TryWrite.

// Envelope kinds.
const (
	envHello = iota + 1 // handshake: Src, Inc
	envData             // Src, Gen, Seq, Body (one wire message frame)
	envAck              // Src, Gen, Cum
)

// envelope is the unit on a daemon-to-daemon connection, framed by the
// fixed-layout codec in codec.go. Hello is written bare on every fresh
// connection before any data; the receiver answers with its own hello
// (the "welcome") so both sides learn both incarnations.
type envelope struct {
	Kind int
	Src  int
	Inc  int64
	Gen  uint64
	Seq  uint64
	Cum  uint64
	Body []byte
}

// SessionMetrics counts one peer session's ARQ work.
type SessionMetrics struct {
	DataFrames      uint64
	Retransmissions uint64
	AcksSent        uint64
	DupsSuppressed  uint64
	Buffered        uint64
	StaleFrames     uint64
	Reopened        uint64
	Connects        uint64 // outbound connections dialed and welcomed
	Batches         uint64 // socket writes (coalesced envelope groups)
	Envelopes       uint64 // envelopes carried by those batches
	// WriterBatches counts the batches the writer goroutine wrote: what
	// queued while the link had no connection or a tail, and retransmits.
	WriterBatches uint64
}

// peerSession is one ordered pair: this daemon's channel to one peer.
// The reverse direction lives in the peer's own session for us; the only
// coupling is that our acks for their data ride our link.
type peerSession struct {
	d    *Daemon
	peer int
	link *livenet.Link

	mu        sync.Mutex
	out       relnet.Outbox[[]byte]
	in        relnet.Inbox[[]byte]
	remoteInc int64
	// linkInc is the incarnation that welcomed the outbound connection
	// most recently dialed; zero until the first handshake completes.
	linkInc  int64
	sendQ    []envelope // envelopes awaiting a write, in order
	ackDirty bool
	ackGen   uint64
	ackCum   uint64
	closed   bool
	// wake kicks the writer goroutine; kicks it has not yet taken fold
	// into one.
	wake chan struct{}

	// The retransmit timer runs only while frames are unacked, like
	// netsim.Reliable's: armed when the backlog becomes non-empty, re-armed
	// for the full rto on ack progress, stopped when the backlog empties.
	// due is when the armed timer fires; a tick that finds the timer
	// disarmed or not yet due lost a race with onAck and does nothing.
	rto   time.Duration
	timer *time.Timer
	armed bool
	due   time.Time

	metrics SessionMetrics

	wg sync.WaitGroup
}

func newPeerSession(d *Daemon, peer int, addr string) *peerSession {
	s := &peerSession{d: d, peer: peer, rto: relnet.BaseRTO, wake: make(chan struct{}, 1)}
	s.link = livenet.NewLink(addr, livenet.LinkOptions{
		MaxAttempts: 3,
		OnConnect:   s.handshake,
	})
	// Boot under our own incarnation; the first handshake lifts it to
	// max(ours, peer's). The inbox floor matters after a restart: any
	// frame stamped with a generation below our boot incarnation was
	// sent to our previous life (the pair generation is the incarnation
	// maximum, and ours is newer than both old ones), so it is stale by
	// definition — the peer replays its backlog under the new generation
	// once it learns it, and admitting the old copies too would deliver
	// them twice.
	s.out.Reopen(uint64(d.inc))
	s.in.Reset(uint64(d.inc))
	s.timer = time.AfterFunc(s.rto, s.retransmitTick)
	s.timer.Stop() // the first unacked frame arms it
	s.wg.Add(1)
	go s.writeLoop()
	return s
}

// handshake runs on every freshly dialed connection, before any frame:
// introduce ourselves, read the peer's welcome, and adopt the session
// generation both incarnations agree on.
func (s *peerSession) handshake(conn net.Conn) error {
	hello := envelope{Kind: envHello, Src: s.d.id, Inc: s.d.inc}
	if err := writeEnvelope(conn, &hello); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	var welcome envelope
	if err := readEnvelope(conn, &welcome); err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	if welcome.Kind != envHello || welcome.Src != s.peer {
		return fmt.Errorf("handshake: peer at %s identifies as node %d, want %d",
			s.link.Addr(), welcome.Src, s.peer)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.linkInc = welcome.Inc
	s.metrics.Connects++
	s.noteRemoteIncLocked(welcome.Inc)
	return nil
}

// peerAlive applies the connection-lifecycle rule to a hello read on an
// inbound connection. If the outbound link was welcomed by an older
// incarnation — or by none, the cold-boot case where our dial found the
// peer not listening yet and accrued backoff — the link is reset (socket
// dropped, backoff cleared, a waiting Send woken) and the writer is
// kicked to dial now, so the handshake is off the next frame's critical
// path. A link already welcomed by this incarnation is left alone.
//
// Reset and the reopen happen in one critical section, before the writer
// can see the renumbered backlog: no frame of the new generation is ever
// written to the old socket. A dial racing this hello either has passed
// its handshake (linkInc is current, nothing to reset) or has not yet
// taken s.mu there (it installs its connection after our Reset), so a
// good connection is never dropped.
func (s *peerSession) peerAlive(inc int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.linkInc < inc {
		s.link.Reset()
		s.kick()
	}
	s.noteRemoteIncLocked(inc)
}

// noteRemoteIncLocked records the peer's incarnation (from its hello on
// either side's connection) and reopens the outbox when the pair
// generation moved: the peer restarted, so the unacked backlog is
// renumbered from 0 under the new generation and queued for replay. The
// caller holds s.mu; the queue is written by the send lock's holder
// (the handshake's) once it lets go, or by the writer peerAlive kicks.
func (s *peerSession) noteRemoteIncLocked(inc int64) {
	if inc > s.remoteInc {
		s.remoteInc = inc
	}
	gen := uint64(s.d.inc)
	if r := uint64(s.remoteInc); r > gen {
		gen = r
	}
	if gen == s.out.Gen() {
		return
	}
	s.out.Reopen(gen)
	s.metrics.Reopened++
	// Drop the queued data envelopes (their gen/seq stamps are stale; the
	// queue holds nothing else) and requeue the whole renumbered backlog.
	s.sendQ = s.sendQ[:0]
	for _, f := range s.out.Pending() {
		s.sendQ = append(s.sendQ, s.dataEnvLocked(f))
	}
	s.rto = relnet.BaseRTO
	s.rearmLocked()
}

func (s *peerSession) dataEnvLocked(f relnet.OutFrame[[]byte]) envelope {
	return envelope{Kind: envData, Src: s.d.id, Gen: s.out.Gen(), Seq: f.Seq, Body: f.Payload}
}

// sendFrame queues one wire-encoded protocol message for the peer; the
// caller flushes (the daemon, after the event). The frame bytes
// are retained for retransmission until acked.
func (s *peerSession) sendFrame(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	f := s.out.Push(len(frame), frame)
	s.metrics.DataFrames++
	s.sendQ = append(s.sendQ, s.dataEnvLocked(f))
	s.armLocked()
}

// accept runs the inbox on one arriving data envelope and queues the
// cumulative ack for the caller to flush. deliver receives in-order
// frames, synchronously.
func (s *peerSession) accept(e envelope, deliver func([]byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.in.Accept(e.Gen, e.Seq, e.Body, deliver) {
	case relnet.VerdictStale:
		s.metrics.StaleFrames++
		return // dead sequence space: no ack
	case relnet.VerdictDuplicate:
		s.metrics.DupsSuppressed++
	case relnet.VerdictBuffered:
		s.metrics.Buffered++
	}
	s.ackGen, s.ackCum, s.ackDirty = s.in.Gen(), s.in.Cum(), true
	s.metrics.AcksSent++
}

// onAck consumes a cumulative ack that arrived on our inbound plane.
func (s *peerSession) onAck(gen, cum uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	progress, stale := s.out.Ack(gen, cum)
	if stale {
		s.metrics.StaleFrames++
		return
	}
	if progress {
		s.rto = relnet.BaseRTO
		s.rearmLocked()
	}
}

// armLocked starts the retransmit timer for the oldest unacked frame
// unless it is running already or nothing is unacked. The caller holds
// s.mu.
func (s *peerSession) armLocked() {
	if s.armed || s.closed || s.out.Len() == 0 {
		return
	}
	s.armed = true
	s.due = time.Now().Add(s.rto)
	s.timer.Reset(s.rto)
}

// rearmLocked restarts the timer from now: the oldest unacked frame
// changed (ack progress) or was just sent again (reopen), so it gets a
// full rto. The caller holds s.mu.
func (s *peerSession) rearmLocked() {
	if s.armed {
		s.timer.Stop()
		s.armed = false
	}
	s.armLocked()
}

// retransmitTick replays the oldest unacked frame once it has gone a
// full rto without ack progress, doubling the rto up to its cap. Unlike
// the DES sublayer there is no give-up budget: the backlog must survive a
// peer outage so the protocol state stays exact across restarts; the
// §3.6 request timeout (not the transport) bounds how long a checkpoint
// waits. The tick holds s.mu, under which nothing may write, so the
// writer writes the frame.
func (s *peerSession) retransmitTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed || s.closed || time.Now().Before(s.due) {
		return
	}
	s.armed = false
	f, ok := s.out.Oldest()
	if !ok {
		return
	}
	s.metrics.Retransmissions++
	s.sendQ = append(s.sendQ, s.dataEnvLocked(f))
	s.kick()
	s.rto = min(2*s.rto, relnet.MaxRTO)
	s.armLocked()
}

// queued reports whether envelopes or an ack wait for a write.
func (s *peerSession) queued() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && (len(s.sendQ) > 0 || s.ackDirty)
}

// fill is the link's batch callback, run under its send lock: it takes
// every queued envelope, and the pending ack, off the queue into buf,
// and counts the batch in *batches.
func (s *peerSession) fill(buf []byte, batches *uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	count := len(s.sendQ)
	for i := range s.sendQ {
		buf = appendEnvelope(buf, &s.sendQ[i])
	}
	s.sendQ = s.sendQ[:0]
	if s.ackDirty {
		ack := envelope{Kind: envAck, Src: s.d.id, Gen: s.ackGen, Cum: s.ackCum}
		buf = appendEnvelope(buf, &ack)
		s.ackDirty = false
		count++
	}
	if count > 0 {
		s.metrics.Batches++
		s.metrics.Envelopes += uint64(count)
		*batches++
	}
	return buf
}

// flush writes what is queued for the peer on the calling goroutine, as
// long as the link takes it without waiting, and returns how many
// batches it wrote. It checks the queue again each time it has let go of
// the link's send lock, since a goroutine that found the lock held has
// left its envelopes there. If another goroutine holds the lock, the
// queue is that one's; what the link cannot take without waiting kicks
// the writer.
func (s *peerSession) flush() (batches uint64) {
	fill := func(buf []byte) []byte { return s.fill(buf, &batches) }
	for s.queued() {
		ok, wait := s.link.TryWrite(fill)
		if wait {
			s.kick()
		}
		if !ok || wait {
			break
		}
	}
	return batches
}

// kick wakes the writer goroutine.
func (s *peerSession) kick() {
	select {
	case s.wake <- struct{}{}:
	default: // a kick is pending already
	}
}

// writeLoop is the per-peer writer goroutine: the one writer that may
// wait. On each kick it dials if the link is down and writes the link's
// tail, with a blocking Link.Send, then flushes the queue.
func (s *peerSession) writeLoop() {
	defer s.wg.Done()
	for range s.wake {
		err := s.link.Send(nil)
		if errors.Is(err, livenet.ErrLinkClosed) {
			return
		}
		if err != nil {
			// The queue waits for the next kick; flush below gives one while
			// envelopes are queued, and the link's backoff paces the dials.
			s.d.logf("P%d: send to P%d: %v", s.d.id, s.peer, err)
		}
		batches := s.flush()
		s.mu.Lock()
		s.metrics.WriterBatches += batches
		s.mu.Unlock()
	}
}

// ready reports whether the handshake with this peer has completed at
// least once since boot.
func (s *peerSession) ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remoteInc != 0
}

func (s *peerSession) snapshotMetrics() SessionMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

func (s *peerSession) backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.Len()
}

func (s *peerSession) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.timer.Stop()
	s.link.Close()
	s.kick() // the writer's next Send finds the link closed
	s.wg.Wait()
}

// incarnation helpers ------------------------------------------------

// bootIncarnation picks a strictly positive incarnation for this process
// start. Nanosecond wall time is unique across restarts of the same node
// for any realistic restart cadence; ties across distinct nodes are
// harmless (only the pair maximum matters).
var lastInc atomic.Int64

func bootIncarnation() int64 {
	for {
		now := time.Now().UnixNano()
		prev := lastInc.Load()
		if now <= prev {
			now = prev + 1
		}
		if lastInc.CompareAndSwap(prev, now) {
			return now
		}
	}
}
