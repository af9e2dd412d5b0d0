package daemon

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
)

// Control RPC over a dedicated TCP listener: one request frame, one
// response frame (codec.go), repeatable on the same connection — mcpctl
// and the e2e harness drive the daemon entirely through this plane.

// Control operations.
const (
	OpStatus     = "status"
	OpCheckpoint = "checkpoint"
	OpSend       = "send"
	OpLine       = "line"
	OpMetrics    = "metrics"
	OpStore      = "store"
	OpResolve    = "resolve"
	OpRollback   = "rollback"
	OpShutdown   = "shutdown"
)

// Request is one control call.
type Request struct {
	Op      string
	To      int              // send: destination process
	Payload []byte           // send: application payload
	WaitMS  int              // checkpoint: wait bound (0 = 2x request timeout)
	Trig    protocol.Trigger // resolve: the instance to look up
}

// Response is the answer to any Request; Err is empty on success and
// only the fields relevant to the Op are populated.
type Response struct {
	Err string

	// status
	ID          int
	N           int
	Algorithm   string
	Ready       bool
	InProgress  bool
	Incarnation int64
	Commits     uint64
	Aborts      uint64

	// checkpoint
	Committed bool

	// line
	State protocol.State

	// metrics
	Metrics Metrics

	// store
	HasPayload bool
	Payload    chunkstore.Stats

	// resolve
	Outcome Outcome
}

// Outcome is an initiator's answer to resolve: how one of its own
// instances ended.
type Outcome int

const (
	// OutcomeCommitted: the initiator's store holds the commit.
	OutcomeCommitted Outcome = iota + 1
	// OutcomeAborted: the initiator dropped the instance, or never durably
	// started it; no process holds it committed.
	OutcomeAborted
	// OutcomePending: the initiator's engine is still deciding; ask again.
	OutcomePending
)

// Metrics aggregates one daemon's counters for the control plane.
type Metrics struct {
	Commits uint64
	Aborts  uint64
	// LoopHandoffs counts the events the mailbox's serve goroutine ran:
	// ones queued while another goroutine held the loop role, each a
	// goroutine wake-up the queuing goroutine did not run itself.
	LoopHandoffs uint64
	Sessions     map[int]SessionMetrics
	Backlog      map[int]int // unacked frames per peer channel
	Store        stable.Metrics
}

func (d *Daemon) acceptControl() {
	for {
		conn, err := d.ctlLn.Accept()
		if err != nil {
			return
		}
		d.serveConn(conn, d.serveControl)
	}
}

func (d *Daemon) serveControl(conn net.Conn) {
	defer conn.Close() //nolint:errcheck
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		req, err := readRequest(r)
		if err != nil {
			return
		}
		resp := d.handleControl(req)
		frame, err := appendResponse(buf[:0], &resp)
		if err != nil {
			return
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
		buf = frame
		if req.Op == OpShutdown && resp.Err == "" {
			// The response is on the wire; now let main tear us down.
			d.requestStop()
			return
		}
	}
}

func (d *Daemon) handleControl(req Request) Response {
	if !d.running.Load() {
		return d.bootControl(req)
	}
	var resp Response
	fail := func(err error) Response {
		resp.Err = err.Error()
		return resp
	}
	switch req.Op {
	case OpStatus:
		resp.ID, resp.N = d.id, d.n
		resp.Ready = d.Ready()
		resp.Incarnation = d.inc
		err := d.onLoop(func() {
			resp.Algorithm = d.engine.Name()
			resp.InProgress = d.engine.InProgress()
			resp.Commits, resp.Aborts = d.commits, d.aborts
		})
		if err != nil {
			return fail(err)
		}
	case OpCheckpoint:
		wait := time.Duration(req.WaitMS) * time.Millisecond
		if wait <= 0 {
			wait = 2 * d.cfg.RequestTimeout()
		}
		committed, err := d.Checkpoint(wait)
		if err != nil {
			return fail(err)
		}
		resp.Committed = committed
	case OpSend:
		if err := d.SendApp(protocol.ProcessID(req.To), req.Payload); err != nil {
			return fail(err)
		}
	case OpLine:
		st, err := d.PermanentState()
		if err != nil {
			return fail(err)
		}
		resp.State = st
	case OpMetrics:
		m := Metrics{
			Sessions: make(map[int]SessionMetrics, d.n-1),
			Backlog:  make(map[int]int, d.n-1),
		}
		err := d.onLoop(func() {
			m.Commits, m.Aborts = d.commits, d.aborts
			m.Store = d.store.Metrics()
		})
		if err != nil {
			return fail(err)
		}
		m.LoopHandoffs = d.mb.handoffCount()
		for _, s := range d.sessions {
			if s == nil {
				continue
			}
			m.Sessions[s.peer] = s.snapshotMetrics()
			m.Backlog[s.peer] = s.backlog()
		}
		resp.Metrics = m
	case OpStore:
		err := d.onLoop(func() {
			if d.payload == nil {
				return
			}
			resp.HasPayload = true
			resp.Payload = d.payload.Stats()
			// The audit doubles as a health probe: a store op from mcpctl
			// should notice on-disk corruption, not just report counters.
			if err := d.payload.Verify(d.ID()); err != nil {
				resp.Err = err.Error()
			}
		})
		if err != nil {
			return fail(err)
		}
	case OpResolve:
		// How did this daemon's instance req.Trig end? A restarting peer
		// asks to settle a tentative checkpoint it acked before crashing
		// (2PC in-doubt resolution: the initiator alone decided it).
		if err := d.ownsTrigger(req.Trig); err != nil {
			return fail(err)
		}
		err := d.onLoop(func() {
			if e, ok := d.engine.(protocol.Initiator); ok && e.Initiating() && e.OwnTrigger() == req.Trig {
				resp.Outcome = OutcomePending
				return
			}
			resp.Outcome = d.storeOutcome(req.Trig)
		})
		if err != nil {
			return fail(err)
		}
	case OpRollback:
		if err := d.Rollback(); err != nil {
			return fail(err)
		}
	case OpShutdown:
		// Acknowledged in serveControl after the response is written.
	default:
		resp.Err = "daemon: unknown op " + req.Op
	}
	return resp
}

// bootControl serves the control plane while New is still recovering:
// status at once (never ready), resolve from the store, nothing else.
// No engine runs yet, so no own instance is pending, and an own tentative
// the crash left undecided is about to be dropped: the store's answer is
// final.
func (d *Daemon) bootControl(req Request) Response {
	var resp Response
	switch req.Op {
	case OpStatus:
		resp.ID, resp.N, resp.Incarnation = d.id, d.n, d.inc
	case OpResolve:
		if err := d.ownsTrigger(req.Trig); err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Outcome = d.storeOutcome(req.Trig)
	default:
		resp.Err = fmt.Sprintf("daemon: P%d is starting: %s refused", d.id, req.Op)
	}
	return resp
}

// ownsTrigger refuses a resolve for an instance this daemon did not
// initiate: only the initiator's store records the outcome.
func (d *Daemon) ownsTrigger(trig protocol.Trigger) error {
	if trig.Pid != d.id {
		return fmt.Errorf("daemon: P%d cannot resolve %+v: P%d initiated it", d.id, trig, trig.Pid)
	}
	return nil
}

// storeOutcome answers resolve from the outcomes this daemon's store
// keeps for its own instances.
func (d *Daemon) storeOutcome(trig protocol.Trigger) Outcome {
	if d.store.Outcomes().Committed(trig.Inum) {
		return OutcomeCommitted
	}
	return OutcomeAborted
}
