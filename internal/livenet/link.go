// Package livenet is the sender side of the cluster daemon's TCP
// channels: a Link per peer that redials a broken connection and paces
// dials to a peer that does not answer. The ARQ, incarnations and
// delivery live above it, in internal/daemon and internal/relnet.
package livenet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"
)

// Link defaults; LinkOptions overrides the last two.
const (
	tcpWriteTimeout         = 5 * time.Second // bounds each Send's write
	defaultTCPMaxReconnects = 5
	tcpReconnectBackoff     = 10 * time.Millisecond
)

// Link is the sender side of one TCP channel: it owns the connection to a
// fixed peer address, repairs it when broken, and writes pre-framed bytes
// (internal/wire frames) with a deadline so a wedged peer cannot block
// the caller forever. The cluster daemon (internal/daemon) holds one per
// peer.
//
// Reconnect backoff is per-link state, not per-send: a peer that stays
// down keeps escalating the schedule across sends instead of restarting
// it at the base every time (the old per-send schedule hammered a dead
// peer at the base rate forever — each send retried from 10 ms no matter
// how long the peer had been gone). The schedule paces dials to a peer
// that does not answer and nothing else: a connection that has carried a
// write and then breaks is re-dialed at once. A successful write resets
// the schedule, and so does Reset, for a caller that has learned by other
// means that the peer is up.
//
// TryWrite is the other way in: it writes only what the socket takes
// now, never dials and never waits, so a caller that must not block (the
// daemon's event runner) can write on its own goroutine and leave the
// rest to one that may. It takes its batch through a fill callback that
// runs under the send lock, so a batch leaves the caller's queue only
// when the link can take it.
//
// Two locks. sendMu is the channel's FIFO and its one write token: Send
// and Connect hold it from start to end — across the backoff wait, the
// dial, the OnConnect handshake and the write — so no frame overtakes
// another; TryWrite only tries it. mu guards the fields and is never
// held across I/O or a wait, which is what lets Reset and Close interrupt
// a Send that is waiting out a backoff or writing to a dead socket.
// Order: sendMu before mu.
type Link struct {
	sendMu sync.Mutex
	// batch is the buffer TryWrite's fill appends to; sendMu guards it.
	batch []byte

	mu   sync.Mutex
	addr string
	opts LinkOptions

	conn net.Conn
	raw  syscall.RawConn // conn's descriptor, for TryWrite
	// tail is what TryWrite kept of its last batch; the next Send writes it
	// first. The rest of a batch the socket did not take belongs to conn,
	// and dropping conn discards it (the frames in it are the ARQ's to
	// resend); a whole batch kept when conn failed under it goes on the
	// next connection. Only a holder of sendMu changes its bytes; mu
	// guards the slice.
	tail []byte
	// proven is set once conn has carried a successful write: its loss is
	// then a broken connection, not a peer that accepts and hangs up.
	proven bool

	// backoff is the wait the next dial attempt pays; zero means dial
	// immediately. It escalates exponentially across failed attempts —
	// whether those attempts happen inside one send or across many — and
	// resets on a successful write or a Reset.
	backoff time.Duration
	// wake is closed (and replaced) by Reset and Close to end a backoff
	// wait early.
	wake chan struct{}

	dialFailures uint64
	closed       bool
}

// LinkOptions tunes a Link. The zero value takes the defaults.
type LinkOptions struct {
	// MaxAttempts bounds the dial attempts one Send makes on a broken
	// connection (default 5). The backoff schedule is NOT per-send: it
	// carries over to the next Send where the peer stays down.
	MaxAttempts int
	// BaseBackoff is the first re-dial delay (default 10 ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the escalation (default 1 s).
	MaxBackoff time.Duration
	// OnConnect, when non-nil, runs on every freshly dialed connection
	// before any frame is written (handshakes); an error counts as a dial
	// failure. It runs under the link's send lock, not its state lock, so
	// it may block on the network but must not call Send or Connect.
	OnConnect func(conn net.Conn) error
}

func (o LinkOptions) defaults() LinkOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = defaultTCPMaxReconnects
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = tcpReconnectBackoff
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = time.Second
	}
	return o
}

// ErrLinkClosed is returned by operations on a closed link.
var ErrLinkClosed = errors.New("livenet: link closed")

// NewLink returns an unconnected link to addr. The first Send (or an
// explicit Connect) dials it.
func NewLink(addr string, opts LinkOptions) *Link {
	return &Link{addr: addr, opts: opts.defaults(), wake: make(chan struct{})}
}

// Addr returns the peer address.
func (l *Link) Addr() string { return l.addr }

// Connect dials the peer now if not connected, without waiting out the
// backoff: one attempt, so bootstrap layers can drive their own retry
// cadence.
func (l *Link) Connect() error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	_, err := l.acquire(false)
	return err
}

// Backoff returns the delay the next dial attempt will pay (zero right
// after a successful write). Exposed for the reconnect-schedule
// regression test and for operational introspection.
func (l *Link) Backoff() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.backoff
}

// DialFailures counts failed dial attempts since the link was created.
func (l *Link) DialFailures() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dialFailures
}

// acquire returns the live connection, dialing one first if there is
// none; the caller holds sendMu. With wait set the dial first waits out
// the link's backoff, unless Reset or Close cuts the wait short. A failed
// dial (or handshake) escalates the backoff; a dial can also succeed
// against a half-open peer and still fail the first write, so only a
// write resets the schedule.
func (l *Link) acquire(wait bool) (net.Conn, error) {
	l.mu.Lock()
	conn, closed, backoff, wake := l.conn, l.closed, l.backoff, l.wake
	l.mu.Unlock()
	if closed {
		return nil, ErrLinkClosed
	}
	if conn != nil {
		return conn, nil
	}
	if wait && backoff > 0 {
		// Waiting under sendMu is deliberate: the link is a FIFO channel,
		// so letting another Send overtake would reorder frames.
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-wake:
			t.Stop()
			return l.acquire(wait) // Reset or Close changed the state: read it again
		}
	}

	conn, err := net.Dial("tcp", l.addr)
	if err == nil && l.opts.OnConnect != nil {
		if herr := l.opts.OnConnect(conn); herr != nil {
			conn.Close() //nolint:errcheck
			err = herr
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		if err == nil {
			conn.Close() //nolint:errcheck
		}
		return nil, ErrLinkClosed
	}
	if err != nil {
		l.dialFailures++
		l.escalateLocked()
		return nil, err
	}
	l.conn, l.proven = conn, false
	l.raw, _ = conn.(syscall.Conn).SyscallConn() // a TCPConn's never fails
	return l.conn, nil
}

func (l *Link) escalateLocked() {
	if l.backoff == 0 {
		l.backoff = l.opts.BaseBackoff
		return
	}
	l.backoff *= 2
	if l.backoff > l.opts.MaxBackoff {
		l.backoff = l.opts.MaxBackoff
	}
}

// Send writes one pre-framed byte sequence (one frame or a coalesced
// batch, from wire.AppendMessage or the daemon's envelope codec) after
// the tail TryWrite kept, the two in one write. A nil frame dials if the
// link is down and writes the tail alone. A broken connection is
// re-dialed up to MaxAttempts times within this call: at once when the
// connection had been carrying writes, on the link's persistent backoff
// schedule when dials fail.
func (l *Link) Send(frame []byte) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	var lastErr error
	for attempt := 0; attempt < l.opts.MaxAttempts; attempt++ {
		conn, err := l.acquire(true)
		if errors.Is(err, ErrLinkClosed) {
			return err
		}
		if err != nil {
			lastErr = err
			continue
		}
		l.mu.Lock()
		tail := l.tail // empty if Reset or Close has dropped conn
		l.mu.Unlock()
		// The deadline bounds this write only: TryWrite's raw writes past
		// it would fail.
		conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout)) //nolint:errcheck
		bufs := net.Buffers{tail, frame}
		_, werr := bufs.WriteTo(conn)
		conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
		l.mu.Lock()
		if werr == nil {
			l.proven, l.backoff = true, 0
			l.tail = l.tail[:0]
			l.mu.Unlock()
			return nil
		}
		// Reset or Close may have dropped conn already; that is theirs to
		// account for. Otherwise the backoff is charged only when the
		// connection never carried a write (a peer that accepts and hangs
		// up is paced like one that refuses).
		if l.conn == conn {
			if !l.proven {
				l.escalateLocked()
			}
			l.dropConnLocked()
		}
		l.mu.Unlock()
		lastErr = werr
	}
	return fmt.Errorf("livenet: send to %s after %d attempts: %w", l.addr, l.opts.MaxAttempts, lastErr)
}

// TryWrite writes, on the calling goroutine, the batch fill appends to
// an empty buffer, if that needs no wait: it takes the send lock only if
// it is free, dials nothing, and writes what the socket buffer accepts
// now. fill runs under the send lock, and only when the link can take
// its batch; it may return the buffer empty.
//
// When the send lock is held, TryWrite returns at once with ok and wait
// false, and fill does not run: a caller that shares a queue with the
// holder leaves its batch there, for the holder to take once it has let
// go of the lock. When there is no connection, or an earlier tail is
// unsent, wait is true and fill does not run: the batch is for a Send.
// Otherwise ok is true: fill ran, and its batch is written whole, or wait
// is true and the next Send writes first what the link kept of it. That
// is the rest the socket did not take, the link's tail; or, when the
// write failed (the connection is then dropped, as Send drops it) or the
// connection was dropped meanwhile, the whole batch, which the next
// connection carries. A frame cut short by a failed write may have
// reached the peer in part, so its resend can deliver some of it twice;
// the daemon's ARQ drops such duplicates.
func (l *Link) TryWrite(fill func([]byte) []byte) (ok, wait bool) {
	if !l.sendMu.TryLock() {
		return false, false
	}
	defer l.sendMu.Unlock()
	l.mu.Lock()
	conn, raw, pending := l.conn, l.raw, len(l.tail) > 0
	l.mu.Unlock()
	if conn == nil || pending {
		return false, true
	}
	l.batch = fill(l.batch[:0])
	n, err := writeNow(raw, l.batch)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil && l.conn == conn {
		if !l.proven {
			l.escalateLocked()
		}
		l.dropConnLocked()
	}
	if l.conn != conn {
		// The write failed, or Reset or Close dropped conn meanwhile. The
		// batch starts on a frame boundary, so it can start the next
		// connection too.
		l.tail = append(l.tail[:0], l.batch...)
		return true, true
	}
	if n > 0 {
		l.proven, l.backoff = true, 0
	}
	if n < len(l.batch) {
		l.tail = append(l.tail[:0], l.batch[n:]...)
		return true, true
	}
	return true, false
}

// dropConnLocked closes and forgets the connection and its tail; the
// caller holds l.mu.
func (l *Link) dropConnLocked() {
	if l.conn != nil {
		l.conn.Close() //nolint:errcheck
		l.conn = nil
		l.raw = nil
	}
	l.tail = l.tail[:0]
}

// interruptLocked ends a backoff wait in progress; the caller holds l.mu.
func (l *Link) interruptLocked() {
	close(l.wake)
	l.wake = make(chan struct{})
}

// Reset is for a caller that knows the peer is reachable now and that the
// current socket, if any, does not lead to it (the peer restarted): the
// socket is dropped, the backoff schedule starts over, and a Send waiting
// out a backoff dials at once. It never blocks on the network.
func (l *Link) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.dropConnLocked()
	l.backoff = 0
	l.interruptLocked()
}

// Kill abruptly closes the socket but leaves the link usable (fault
// injection): the next Send discovers the break on its write and runs the
// full failure path. Test-only: TestLinkRedialsAtOnceAfterWriteError and
// the daemon's TestKilledConnectionLosesNothing.
func (l *Link) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close() //nolint:errcheck
	}
}

// Close shuts the link down; all later operations fail, and a Send
// waiting out a backoff returns ErrLinkClosed.
func (l *Link) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.dropConnLocked()
	l.interruptLocked()
}
