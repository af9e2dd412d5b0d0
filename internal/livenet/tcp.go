package livenet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// TCP support: the same live cluster, but every message crosses a real
// loopback TCP connection through the wire codec. One connection per
// ordered process pair keeps per-channel FIFO delivery for free (TCP
// ordering), matching the computation model.
//
// The mesh is failure-hardened: every write carries a deadline so a wedged
// peer cannot block a sender's event loop, reads idle out when configured,
// and a broken connection is re-dialed on the next send — at once when it
// had been carrying frames, with exponential backoff while the peer does
// not answer. The backoff schedule lives on the Link — per channel, not
// per send — so a peer that stays down keeps escalating instead of being
// hammered at the base interval by every send. Listeners accept forever,
// not a fixed number of times, so re-dialed connections are served.

// TCP mesh defaults; override via the Config fields of the same name.
const (
	defaultTCPWriteTimeout  = 5 * time.Second
	defaultTCPMaxReconnects = 5
	tcpReconnectBackoff     = 10 * time.Millisecond
)

// tcpMesh owns the listeners and connections of a TCP-backed cluster.
type tcpMesh struct {
	n         int
	listeners []net.Listener
	// links[i][j] is the i->j channel (nil on the diagonal).
	links [][]*Link

	readIdle time.Duration
	linkOpts LinkOptions

	// conns collects receiver-side connections for Close.
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup

	closed chan struct{}
}

// NewTCP builds and starts a live cluster whose messages travel over
// loopback TCP. The caller must Close the returned cluster.
func NewTCP(cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("livenet: need at least 2 processes, got %d", cfg.N)
	}
	if cfg.NewEngine == nil {
		return nil, errors.New("livenet: Config.NewEngine is required")
	}
	if cfg.Delay > 0 {
		return nil, errors.New("livenet: Config.Delay applies to the in-memory transport only, not TCP")
	}
	mesh := &tcpMesh{
		n:        cfg.N,
		readIdle: cfg.TCPReadIdleTimeout,
		linkOpts: LinkOptions{
			WriteTimeout: cfg.TCPWriteTimeout,
			MaxAttempts:  cfg.TCPMaxReconnects,
		},
		closed: make(chan struct{}),
	}
	if err := mesh.listen(); err != nil {
		return nil, err
	}

	c, err := New(cfg)
	if err != nil {
		mesh.close()
		return nil, err
	}
	c.mesh = mesh
	if err := mesh.dial(); err != nil {
		c.Close()
		return nil, err
	}
	mesh.accept(c)
	return c, nil
}

// KillConnection abruptly closes the from->to TCP connection (fault
// injection for tests). The sender discovers the break on its next write
// and reconnects at once; in-flight frames on the dead socket are
// lost, frames sent afterwards are not.
func (c *Cluster) KillConnection(from, to protocol.ProcessID) error {
	if c.mesh == nil {
		return errors.New("livenet: not a TCP-backed cluster")
	}
	return c.mesh.kill(from, to)
}

// listen opens one listener per process on an ephemeral loopback port.
func (m *tcpMesh) listen() error {
	m.listeners = make([]net.Listener, m.n)
	for i := 0; i < m.n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.close()
			return fmt.Errorf("livenet: listen P%d: %w", i, err)
		}
		m.listeners[i] = ln
	}
	return nil
}

// dial eagerly connects every ordered pair i->j so startup failures
// surface immediately; later breaks are repaired lazily by send.
func (m *tcpMesh) dial() error {
	m.links = make([][]*Link, m.n)
	for i := 0; i < m.n; i++ {
		m.links[i] = make([]*Link, m.n)
		for j := 0; j < m.n; j++ {
			if i == j {
				continue
			}
			l := NewLink(m.listeners[j].Addr().String(), m.linkOpts)
			if err := l.Connect(); err != nil {
				return fmt.Errorf("livenet: dial P%d->P%d: %w", i, j, err)
			}
			m.links[i][j] = l
		}
	}
	return nil
}

// accept spawns one persistent accept loop per process: every inbound
// connection — initial or re-dialed — feeds the destination node's mailbox
// in arrival order until the listener closes.
func (m *tcpMesh) accept(c *Cluster) {
	for j := 0; j < m.n; j++ {
		j := j
		ln := m.listeners[j]
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed during shutdown
				}
				m.mu.Lock()
				m.conns = append(m.conns, conn)
				m.mu.Unlock()
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					m.readLoop(c, j, conn)
				}()
			}
		}()
	}
}

func (m *tcpMesh) readLoop(c *Cluster, dst protocol.ProcessID, conn net.Conn) {
	defer conn.Close() //nolint:errcheck
	dec := wire.NewDecoder(conn)
	node := c.nodes[dst]
	for {
		if m.readIdle > 0 {
			conn.SetReadDeadline(time.Now().Add(m.readIdle)) //nolint:errcheck
		}
		msg, err := dec.Decode()
		if err != nil {
			// EOF, idle timeout, or a torn frame: drop the connection. The
			// sender re-dials on its next write; frames are self-contained,
			// so the stream restarts cleanly.
			return
		}
		m := msg
		node.mb.put(func() { node.engine.HandleMessage(m) })
	}
}

// send frames one message and transmits it on the i->j link. Reconnection
// and backoff are the link's business.
func (m *tcpMesh) send(from, to protocol.ProcessID, msg *protocol.Message) error {
	l := m.links[from][to]
	if l == nil {
		return fmt.Errorf("livenet: no connection P%d->P%d", from, to)
	}
	select {
	case <-m.closed:
		return errors.New("livenet: mesh closed")
	default:
	}
	frame, err := wire.AppendMessage(nil, msg)
	if err != nil {
		return err
	}
	return l.Send(frame)
}

// kill closes the pair's socket through the link's fault-injection hook:
// the next send runs the full failure path — write error, re-dial, retry.
func (m *tcpMesh) kill(from, to protocol.ProcessID) error {
	if from < 0 || from >= m.n || to < 0 || to >= m.n || from == to {
		return fmt.Errorf("livenet: bad channel P%d->P%d", from, to)
	}
	m.links[from][to].Kill()
	return nil
}

func (m *tcpMesh) close() {
	select {
	case <-m.closed:
	default:
		close(m.closed)
	}
	for _, ln := range m.listeners {
		if ln != nil {
			ln.Close() //nolint:errcheck
		}
	}
	for _, row := range m.links {
		for _, l := range row {
			if l != nil {
				l.Close()
			}
		}
	}
	m.mu.Lock()
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for _, conn := range conns {
		conn.Close() //nolint:errcheck
	}
	m.wg.Wait()
}
