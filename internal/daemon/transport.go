package daemon

import (
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
// or serve) flushes each session with something queued as one batch
// through Link.TryWrite — the replies, commits and the ack for the
// frame that caused them, in one write per peer per event. A reader
// whose envelope delivers nothing flushes the ack alone. TryWrite never
// waits: what the socket does not take stays as the link's tail, and
// what the link refuses (no connection, a tail unsent, the send lock
// held) is handed whole to the session's writer goroutine, which is left
// with only the waiting work — dials, refused batches, tails and
// retransmits — through the blocking Link.Send. One write token
// (peerSession.writing) orders them: a batch leaves sendQ only with the
// token, and is on the link, or handed to the writer with the token,
// before the next batch is taken.
//
// Lock order: Link's send lock → peerSession.mu → Link's state lock. The
// handshake runs inside Link.Send/Connect (send lock held) and takes
// s.mu; Link.Reset takes only the state lock, which is never held across
// I/O, so peerAlive may call it under s.mu. Nothing under s.mu may call
// Link.Send, Link.Connect or Link.TryWrite.

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
	// WriterBatches counts the batches the writer goroutine wrote: ones
	// TryWrite refused, and ones it took off the queue itself.
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
	cond      *sync.Cond
	out       relnet.Outbox[[]byte]
	in        relnet.Inbox[[]byte]
	remoteInc int64
	// linkInc is the incarnation that welcomed the outbound connection
	// most recently dialed; zero until the first handshake completes.
	linkInc int64
	// connect asks the writer to dial now, with nothing to send yet.
	connect  bool
	sendQ    []envelope // envelopes awaiting a write, in order
	ackDirty bool
	ackGen   uint64
	ackCum   uint64
	closed   bool
	// writing is the write token: held from taking a batch off sendQ
	// until the link has it. handed is a batch TryWrite refused; the
	// token goes to the writer with it. tail is set while the link holds
	// a tail the writer must flush. flushBuf is the token holder's batch
	// buffer outside the writer.
	writing  bool
	handed   []byte
	tail     bool
	flushBuf []byte

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
	s := &peerSession{d: d, peer: peer, rto: relnet.BaseRTO}
	s.cond = sync.NewCond(&s.mu)
	s.link = livenet.NewLink(addr, livenet.LinkOptions{
		WriteTimeout: 5 * time.Second,
		MaxAttempts:  3,
		OnConnect:    s.handshake,
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
// dropped, backoff cleared, a waiting Send woken) and the writer is told
// to dial now, so the handshake is off the next frame's critical path. A
// link already welcomed by this incarnation is left alone.
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
		s.connect = true
		s.cond.Signal()
	}
	s.noteRemoteIncLocked(inc)
}

// noteRemoteIncLocked records the peer's incarnation (from its hello on
// either side's connection) and reopens the outbox when the pair
// generation moved: the peer restarted, so the unacked backlog is
// renumbered from 0 under the new generation and queued for replay. The
// caller holds s.mu.
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
	// Drop queued data envelopes (their gen/seq stamps are stale) and
	// requeue the whole renumbered backlog.
	q := s.sendQ[:0]
	for _, e := range s.sendQ {
		if e.Kind != envData {
			q = append(q, e)
		}
	}
	s.sendQ = q
	for _, f := range s.out.Pending() {
		s.sendQ = append(s.sendQ, s.dataEnvLocked(f))
	}
	s.rto = relnet.BaseRTO
	s.rearmLocked()
	s.cond.Signal()
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
// waits.
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
	s.cond.Signal()
	s.rto = min(2*s.rto, relnet.MaxRTO)
	s.armLocked()
}

// queuedLocked reports whether envelopes or an ack wait for a write.
func (s *peerSession) queuedLocked() bool { return len(s.sendQ) > 0 || s.ackDirty }

// batchLocked takes every queued envelope, and the pending ack, off the
// queue into buf. The caller holds s.mu and the write token.
func (s *peerSession) batchLocked(buf []byte) []byte {
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
	s.metrics.Batches++
	s.metrics.Envelopes += uint64(count)
	return buf
}

// flush writes what is queued for the peer on the calling goroutine, as
// long as the link takes it without waiting: a batch, then whatever was
// queued meanwhile by goroutines that found the token taken. If another
// goroutine holds the write token it leaves the queue to that one; a
// batch the link refuses goes to the writer whole, and so does the
// queue behind a tail the link keeps.
func (s *peerSession) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && !s.writing && !s.tail && s.queuedLocked() {
		s.writing = true
		buf := s.batchLocked(s.flushBuf[:0])
		s.mu.Unlock()
		ok, tail := s.link.TryWrite(buf)
		s.mu.Lock()
		s.flushBuf = buf
		if !ok {
			s.handed = append(s.handed[:0], buf...)
			s.cond.Signal()
			return
		}
		s.writing = false
		s.tail = tail
	}
	if s.tail {
		s.cond.Signal()
	}
}

// writeLoop is the per-peer writer goroutine: the one writer that may
// wait. It dials when peerAlive asks, writes a batch handed over by a
// refused TryWrite, flushes the link's tail, and takes off the queue
// what no event flushes (retransmits, a reopened backlog, what queued
// while it held the token), each with a blocking Link.Send.
func (s *peerSession) writeLoop() {
	defer s.wg.Done()
	var buf []byte
	for {
		s.mu.Lock()
		for !s.closed && !s.connect && len(s.handed) == 0 &&
			(s.writing || !s.tail && !s.queuedLocked()) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.connect = false
		switch {
		case len(s.handed) > 0:
			// The token came with it.
			buf = append(buf[:0], s.handed...)
			s.handed = s.handed[:0]
			s.metrics.WriterBatches++
		case s.writing || !s.tail && !s.queuedLocked():
			// Woken by peerAlive with nothing for us to write: dial now so
			// the next frame finds the connection up. The handshake requeues
			// any backlog. With frames queued, Send below dials anyway.
			s.mu.Unlock()
			if err := s.link.Connect(); err != nil {
				s.d.logf("P%d: connect to P%d: %v", s.d.id, s.peer, err)
			}
			continue
		default:
			s.writing = true
			buf = buf[:0]
			if s.queuedLocked() {
				buf = s.batchLocked(buf)
				s.metrics.WriterBatches++
			}
		}
		s.tail = false
		s.mu.Unlock()

		// Outside the lock: Send writes the link's tail first and re-dials
		// with the link's persistent backoff; new envelopes queue behind it.
		if err := s.link.Send(buf); err != nil {
			// Unacked data frames stay in the outbox and the retransmit
			// timer replays them; a lost ack is refreshed by the next one.
			s.d.logf("P%d: send to P%d: %v", s.d.id, s.peer, err)
		}
		s.mu.Lock()
		s.writing = false
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
	s.cond.Broadcast()
	s.mu.Unlock()
	s.timer.Stop()
	s.link.Close()
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
