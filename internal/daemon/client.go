package daemon

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
)

// Client speaks the control RPC to one daemon. Not safe for concurrent
// use; open one per goroutine (connections are cheap and the daemon
// serves many).
//
// Each call writes one CRC-checked request frame and reads one response
// frame back through a buffered reader (codec.go). Frames are
// self-contained, so a new connection costs no codec set-up, and a
// response longer than wire.MaxFrame is refused before it is allocated.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte // request frame scratch, reused across calls
}

// DialTimeout bounds control dials and per-call responses.
const DialTimeout = 5 * time.Second

// Dial connects to a daemon's control address.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial control %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) do(req Request, respTimeout time.Duration) (Response, error) {
	frame, err := appendRequest(c.buf[:0], &req)
	if err != nil {
		return Response{}, fmt.Errorf("daemon: control write: %w", err)
	}
	c.buf = frame
	if _, err := c.conn.Write(frame); err != nil {
		return Response{}, fmt.Errorf("daemon: control write: %w", err)
	}
	if respTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(respTimeout)) //nolint:errcheck
		defer c.conn.SetReadDeadline(time.Time{})           //nolint:errcheck
	}
	resp, err := readResponse(c.r)
	if err != nil {
		return resp, fmt.Errorf("daemon: control read: %w", err)
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// Status fetches the daemon's identity and readiness.
func (c *Client) Status() (Response, error) {
	return c.do(Request{Op: OpStatus}, DialTimeout)
}

// Checkpoint initiates a checkpointing instance at the daemon and waits
// for the verdict. wait bounds the daemon-side wait (0 = its default);
// the client waits slightly longer.
func (c *Client) Checkpoint(wait time.Duration) (bool, error) {
	respTimeout := 30 * time.Second
	if wait > 0 {
		respTimeout = wait + DialTimeout
	}
	resp, err := c.do(Request{Op: OpCheckpoint, WaitMS: int(wait / time.Millisecond)}, respTimeout)
	return resp.Committed, err
}

// Send injects one application message from this daemon to peer to.
func (c *Client) Send(to int, payload []byte) error {
	_, err := c.do(Request{Op: OpSend, To: to, Payload: payload}, DialTimeout)
	return err
}

// Line returns the daemon's newest permanent checkpoint state.
func (c *Client) Line() (protocol.State, error) {
	resp, err := c.do(Request{Op: OpLine}, DialTimeout)
	return resp.State, err
}

// Metrics fetches the daemon's counters.
func (c *Client) Metrics() (Metrics, error) {
	resp, err := c.do(Request{Op: OpMetrics}, DialTimeout)
	return resp.Metrics, err
}

// Store fetches the daemon's payload chunk-store stats (and runs its
// integrity audit daemon-side). ok is false when the daemon runs
// without a payload plane.
func (c *Client) Store() (stats chunkstore.Stats, ok bool, err error) {
	resp, err := c.do(Request{Op: OpStore}, DialTimeout)
	return resp.Payload, resp.HasPayload, err
}

// Resolve asks the daemon that initiated trig how that instance ended.
func (c *Client) Resolve(trig protocol.Trigger) (Outcome, error) {
	resp, err := c.do(Request{Op: OpResolve, Trig: trig}, DialTimeout)
	return resp.Outcome, err
}

// Rollback restores the daemon to its newest permanent checkpoint.
func (c *Client) Rollback() error {
	_, err := c.do(Request{Op: OpRollback}, DialTimeout)
	return err
}

// Shutdown asks the daemon to drain and exit gracefully.
func (c *Client) Shutdown() error {
	_, err := c.do(Request{Op: OpShutdown}, DialTimeout)
	return err
}

// --- cluster-level helpers (mcpctl and the e2e harness) ---

// WaitClusterReady polls every daemon's status until all report ready:
// the daemon is up AND its handshakes with every peer completed. Dial
// failures are retried until the deadline, so the caller may start the
// daemons in any order and call this immediately.
func WaitClusterReady(cfg *Config, timeout time.Duration) error {
	pending := make(map[int]string, cfg.N())
	for _, nc := range cfg.Nodes {
		pending[nc.ID] = nc.CtlAddr
	}
	if pollUntil(time.Now().Add(timeout), nil, func() bool {
		for id, addr := range pending {
			cl, err := Dial(addr)
			if err == nil {
				st, serr := cl.Status()
				cl.Close() //nolint:errcheck
				if serr == nil && st.Ready {
					delete(pending, id)
				}
			}
		}
		return len(pending) == 0
	}) != nil {
		ids := make([]int, 0, len(pending))
		for id := range pending {
			ids = append(ids, id)
		}
		return fmt.Errorf("daemon: cluster not ready after %v, waiting for %v", timeout, ids)
	}
	return nil
}

// WaitQuiescent polls every daemon until one pass finds no instance in
// progress and no channel holding an unacked frame. App counters and
// permanent checkpoints are then globally consistent. A daemon it cannot
// reach counts as busy.
func WaitQuiescent(cfg *Config, timeout time.Duration) error {
	var err error
	if pollUntil(time.Now().Add(timeout), nil, func() bool { err = busy(cfg); return err == nil }) != nil {
		return fmt.Errorf("daemon: cluster not quiescent after %v: %w", timeout, err)
	}
	return nil
}

// busy names the first daemon keeping the cluster from quiescence, or
// returns nil.
func busy(cfg *Config) error {
	for _, nc := range cfg.Nodes {
		cl, err := Dial(nc.CtlAddr)
		if err != nil {
			return err
		}
		st, err := cl.Status()
		var m Metrics
		if err == nil {
			m, err = cl.Metrics()
		}
		cl.Close() //nolint:errcheck
		if err != nil {
			return fmt.Errorf("P%d: %w", nc.ID, err)
		}
		if st.InProgress {
			return fmt.Errorf("P%d has an instance in progress", nc.ID)
		}
		for peer, n := range m.Backlog {
			if n > 0 {
				return fmt.Errorf("P%d has %d unacked frame(s) to P%d", nc.ID, n, peer)
			}
		}
	}
	return nil
}

// AuditLine collects every daemon's newest permanent checkpoint over the
// control plane and validates the assembled recovery line for orphan
// messages — the live complement of recovery.OpenLine's on-disk audit.
// A line read mid-commit can be transiently inconsistent: the initiator
// has committed and a participant has not yet received the commit frame.
// So run it at quiescence (WaitQuiescent), as RollbackCluster must be.
func AuditLine(cfg *Config) (map[protocol.ProcessID]protocol.State, error) {
	states := make(map[protocol.ProcessID]protocol.State, cfg.N())
	for _, nc := range cfg.Nodes {
		cl, err := Dial(nc.CtlAddr)
		if err != nil {
			return nil, err
		}
		st, lerr := cl.Line()
		cl.Close() //nolint:errcheck
		if lerr != nil {
			return nil, fmt.Errorf("daemon: line from P%d: %w", nc.ID, lerr)
		}
		st.SentTo = protocol.PadCounters(st.SentTo, cfg.N())
		st.RecvFrom = protocol.PadCounters(st.RecvFrom, cfg.N())
		states[protocol.ProcessID(nc.ID)] = st
	}
	if err := consistency.Check(states); err != nil {
		return states, err
	}
	return states, nil
}

// RollbackCluster restores every daemon to its newest permanent
// checkpoint — the cluster-wide recovery mcpctl drives after a process
// restart, so survivors' counters agree with the restarted process's
// restored line. In-flight channel deficits are not re-injected (the
// DES recovery executor does that in virtual time; over live sockets it
// is future work), so run it at quiescence.
func RollbackCluster(cfg *Config) error {
	for _, nc := range cfg.Nodes {
		cl, err := Dial(nc.CtlAddr)
		if err != nil {
			return err
		}
		rerr := cl.Rollback()
		cl.Close() //nolint:errcheck
		if rerr != nil {
			return fmt.Errorf("daemon: rollback P%d: %w", nc.ID, rerr)
		}
	}
	return nil
}

// ShutdownCluster asks every reachable daemon to drain and exit.
func ShutdownCluster(cfg *Config) error {
	var firstErr error
	for _, nc := range cfg.Nodes {
		cl, err := Dial(nc.CtlAddr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if serr := cl.Shutdown(); serr != nil && firstErr == nil {
			firstErr = serr
		}
		cl.Close() //nolint:errcheck
	}
	return firstErr
}
