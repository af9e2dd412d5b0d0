package livenet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Link is the sender side of one TCP channel: it owns the connection to a
// fixed peer address, repairs it when broken, and writes pre-framed bytes
// (internal/wire frames) with a deadline so a wedged peer cannot block
// the caller forever. The in-process mesh (NewTCP clusters) holds one per
// ordered pair; the multi-process daemon (internal/daemon) holds one per
// peer.
//
// Reconnect backoff is per-link state, not per-send: a peer that stays
// down keeps escalating the schedule across sends instead of restarting
// it at the base every time (the old per-send schedule hammered a dead
// peer at the base rate forever — each send retried from 10 ms no matter
// how long the peer had been gone). A successful write resets the
// schedule.
type Link struct {
	mu   sync.Mutex
	addr string
	opts LinkOptions

	conn net.Conn
	w    *bufio.Writer

	// backoff is the sleep the next dial attempt pays; zero means dial
	// immediately. It escalates exponentially across failed attempts —
	// whether those attempts happen inside one send or across many — and
	// resets only on a successful write.
	backoff time.Duration

	dialFailures uint64
	closed       bool
}

// LinkOptions tunes a Link. The zero value takes the defaults.
type LinkOptions struct {
	// WriteTimeout bounds each frame write (default 5 s).
	WriteTimeout time.Duration
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
	// failure.
	OnConnect func(conn net.Conn) error
}

func (o LinkOptions) defaults() LinkOptions {
	if o.WriteTimeout == 0 {
		o.WriteTimeout = defaultTCPWriteTimeout
	}
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
	return &Link{addr: addr, opts: opts.defaults()}
}

// Addr returns the peer address.
func (l *Link) Addr() string { return l.addr }

// Connect dials the peer now if not connected, without sleeping: one
// attempt, so bootstrap layers can drive their own retry cadence.
func (l *Link) Connect() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLinkClosed
	}
	if l.conn != nil {
		return nil
	}
	return l.dialLocked()
}

// Connected reports whether the link currently holds a live connection.
func (l *Link) Connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
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

// dialLocked dials and runs the handshake; the caller holds l.mu. On
// failure the backoff escalates; it resets only on a later successful
// write (a dial can succeed against a half-open peer and still fail the
// first write, so the write is the real evidence of health).
func (l *Link) dialLocked() error {
	conn, err := net.Dial("tcp", l.addr)
	if err == nil && l.opts.OnConnect != nil {
		if herr := l.opts.OnConnect(conn); herr != nil {
			conn.Close() //nolint:errcheck
			conn, err = nil, herr
		}
	}
	if err != nil {
		l.dialFailures++
		l.escalateLocked()
		return err
	}
	l.conn = conn
	l.w = bufio.NewWriter(conn)
	return nil
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
// batch, from wire.AppendMessage or the daemon's envelope codec) and
// flushes. A broken connection is re-dialed up to MaxAttempts times
// within this call, honouring the link's persistent backoff schedule.
func (l *Link) Send(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < l.opts.MaxAttempts; attempt++ {
		if l.closed {
			return ErrLinkClosed
		}
		if l.conn == nil {
			if l.backoff > 0 {
				// Sleeping under the lock is deliberate: the link is a FIFO
				// channel, so letting another Send overtake would reorder
				// frames.
				time.Sleep(l.backoff)
			}
			if err := l.dialLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		l.conn.SetWriteDeadline(time.Now().Add(l.opts.WriteTimeout)) //nolint:errcheck
		_, werr := l.w.Write(frame)
		if werr == nil {
			werr = l.w.Flush()
		}
		if werr == nil {
			l.backoff = 0
			return nil
		}
		lastErr = werr
		l.dropConnLocked()
		l.escalateLocked()
	}
	return fmt.Errorf("livenet: send to %s after %d attempts: %w", l.addr, l.opts.MaxAttempts, lastErr)
}

// dropConnLocked closes and forgets the connection; the caller holds l.mu.
func (l *Link) dropConnLocked() {
	if l.conn != nil {
		l.conn.Close() //nolint:errcheck
		l.conn = nil
		l.w = nil
	}
}

// Kill abruptly closes the socket but leaves the link usable (fault
// injection): the next Send discovers the break on its write and runs the
// full failure path.
func (l *Link) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close() //nolint:errcheck
	}
}

// Close shuts the link down; all later operations fail.
func (l *Link) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.dropConnLocked()
}
