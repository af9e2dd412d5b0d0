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

// StopRetransmitTimers disarms every session's retransmit timer for good,
// so a frame arrives only if the path under test carries it: a frame held
// unacked across a peer restart would otherwise be resent once it had
// waited a full rto.
func (d *Daemon) StopRetransmitTimers() {
	for _, s := range d.sessions {
		if s == nil {
			continue
		}
		s.mu.Lock()
		s.timer.Stop()
		s.armed = false
		// Arming an inert timer only resets a channel nobody reads.
		s.timer = time.NewTimer(time.Hour)
		s.timer.Stop()
		s.mu.Unlock()
	}
}

// DaemonAlgorithms are the engines Config.Validate lets mcpd run.
var DaemonAlgorithms = daemonAlgorithms

// StoreSegments lists the stable log's live segment files.
func (d *Daemon) StoreSegments() []string { return d.store.Segments() }

// FrameView is what a daemon's store holds of a frame's trigger at the
// moment the frame is handed to its peer's session.
type FrameView struct {
	Kind    protocol.Kind
	Trigger protocol.Trigger
	// Tentative: the store holds a tentative checkpoint for Trigger.
	Tentative bool
	// Committed: Trigger is this daemon's own instance and the store
	// holds its commit record.
	Committed bool
}

// OnFrame calls fn, on the event loop, for every frame this daemon hands
// to a peer's session, at that moment.
func (d *Daemon) OnFrame(fn func(FrameView)) error {
	return d.onLoop(func() {
		d.sentHook = func(kind protocol.Kind, trig protocol.Trigger) {
			_, tentative := d.store.Tentative(trig)
			fn(FrameView{
				Kind:      kind,
				Trigger:   trig,
				Tentative: tentative,
				Committed: trig.Pid == d.ID() && d.store.Outcomes().Committed(trig.Inum),
			})
		}
	})
}

// KillLink closes the socket of this daemon's link to peer and leaves the
// link usable, so the next write to peer fails and redials.
func (d *Daemon) KillLink(peer int) { d.sessions[peer].link.Kill() }

// RequestTimeout runs, on the event loop, what the §3.6 timer armed for
// trig's instance runs when it fires.
func (d *Daemon) RequestTimeout(trig protocol.Trigger) error {
	return d.onLoop(func() { d.requestTimeout(trig) })
}

// Initiating reports the instance this daemon initiated last and whether
// it is still open.
func (d *Daemon) Initiating() (trig protocol.Trigger, open bool, err error) {
	err = d.onLoop(func() {
		a := d.engine.(protocol.Initiator)
		trig, open = a.OwnTrigger(), a.Initiating()
	})
	return trig, open, err
}
