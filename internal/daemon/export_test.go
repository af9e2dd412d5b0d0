package daemon

import (
	"time"

	"mutablecp/internal/protocol"
)

// OpenConns is how many accepted connections are being served right now.
func (d *Daemon) OpenConns() int {
	d.connsMu.Lock()
	defer d.connsMu.Unlock()
	return len(d.conns)
}

// StopRetransmitTimers disarms every session's retransmit timer for good.
// The timer is free-running: when it ticks it resends whatever is unacked,
// however briefly, so a test that counts retransmissions around a
// sub-millisecond exchange would collide with it now and then. With the
// timers stopped, a frame arrives only if the path under test carries it.
func (d *Daemon) StopRetransmitTimers() {
	for _, s := range d.sessions {
		if s == nil {
			continue
		}
		// Stop reports false while a tick is running; the tick re-arms the
		// timer before it returns, so try again.
		for !s.timer.Stop() {
			time.Sleep(time.Millisecond)
		}
	}
}

// DaemonAlgorithms are the engines Config.Validate lets mcpd run.
var DaemonAlgorithms = daemonAlgorithms

// StoreSegments lists the stable log's live segment files.
func (d *Daemon) StoreSegments() []string { return d.store.Segments() }

// OnCommitFrame calls fn, on the event loop, for every frame announcing
// one of this daemon's own commits at the moment it is handed to the
// peer's session, with whether the store already holds that commit.
func (d *Daemon) OnCommitFrame(fn func(trig protocol.Trigger, logged bool)) error {
	return d.onLoop(func() {
		d.sentHook = func(kind protocol.Kind, trig protocol.Trigger) {
			if kind == protocol.KindCommit && trig.Pid == d.ID() {
				fn(trig, d.store.Outcomes().Committed(trig.Inum))
			}
		}
	})
}

// KillLink closes the socket of this daemon's link to peer and leaves the
// link usable, so the next write to peer fails and redials.
func (d *Daemon) KillLink(peer int) { d.sessions[peer].link.Kill() }
