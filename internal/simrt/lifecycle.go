package simrt

// Crash/recovery lifecycle support. The phases and the seeded crash
// schedule live here in simrt; the policy that drives them (which line to
// roll back to, what to replay) lives in internal/recovery's executor.
// Everything below runs synchronously inside one simulation event, so the
// rest of the system only ever observes a process live or down.

import (
	"fmt"
	"time"

	"mutablecp/internal/netsim"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// CrashPlan schedules one seeded fail-stop: process Proc crashes at At;
// if RestartAfter > 0 the cluster's restart hook runs at At+RestartAfter
// (otherwise the crash is permanent, PR-2 style).
type CrashPlan struct {
	Proc         protocol.ProcessID
	At           time.Duration
	RestartAfter time.Duration
}

// InstallCrashes schedules the crash plans on the kernel. onRestart is
// the recovery entry point, invoked at each plan's restart instant with
// the crashed process's id; an error from it is recorded as a cluster
// error.
func (c *Cluster) InstallCrashes(plans []CrashPlan, onRestart func(protocol.ProcessID) error) error {
	for _, pl := range plans {
		if pl.Proc < 0 || pl.Proc >= c.cfg.N {
			return fmt.Errorf("simrt: crash plan for unknown process P%d", pl.Proc)
		}
		if pl.At < 0 || pl.RestartAfter < 0 {
			return fmt.Errorf("simrt: negative crash/restart time for P%d", pl.Proc)
		}
		if pl.RestartAfter > 0 && onRestart == nil {
			return fmt.Errorf("simrt: restart scheduled for P%d with no restart hook", pl.Proc)
		}
		pl := pl
		p := c.procs[pl.Proc]
		c.sim.ScheduleAt(pl.At, func() { p.Fail() })
		if pl.RestartAfter > 0 {
			c.sim.ScheduleAt(pl.At+pl.RestartAfter, func() {
				if err := onRestart(pl.Proc); err != nil {
					c.fail(fmt.Errorf("simrt: recover P%d: %w", pl.Proc, err))
				}
			})
		}
	}
	return nil
}

// PurgeRolledBack removes the metrics records of instances the given
// process initiated after csn — instances the rollback discarded, whose
// triggers the resumed execution will legitimately reuse.
func (c *Cluster) PurgeRolledBack(pid protocol.ProcessID, csn int) {
	c.metrics.purgeRolledBack(pid, csn)
}

// BeginRestore moves a process into PhaseRestoring: its volatile state is
// wiped (a restore is semantically a fresh host loading a checkpoint),
// its epoch is bumped so every in-flight delivery addressed to or sent by
// the pre-rollback incarnation is fenced off, and its engine is rebuilt
// from the cluster's factory. Applies both to a down process restarting
// and to a live peer being coordinately rolled back.
func (p *Proc) BeginRestore() {
	p.phase = PhaseRestoring
	p.epoch++
	p.ckpt.Crash()
	p.queue = nil
	p.inbox = nil
	p.blocked = false
	p.disconnected = false
	p.dozing = false
	p.busyUntil = p.c.sim.Now()
	if p.ticker != nil {
		// des.Ticker stop is sticky; MarkLive arms a fresh one.
		p.ticker.Stop()
		p.ticker = nil
	}
	p.engine = p.c.cfg.NewEngine(p)
	if rr, ok := p.c.transport.(netsim.PeerResetter); ok {
		// Stateful transports (netsim.Reliable) must re-establish this
		// process's channels: a sender half may have given the crashed
		// peer up for dead, and abandoned frames leave resequencing gaps
		// that would wedge the channel forever.
		rr.ResetPeer(p.id)
	}
	p.Trace(trace.KindNote, -1, "restore begins (epoch %d)", p.epoch)
}

// SetCounters overwrites the process's channel counters from a restored
// checkpoint state (truncated vectors; missing entries read zero).
func (p *Proc) SetCounters(sent, recv []uint64) {
	p.sentTo = append(p.sentTo[:0], sent...)
	p.recvFrom = append(p.recvFrom[:0], recv...)
}

// MarkReplaying moves a restoring process into PhaseReplaying, during
// which the recovery executor redelivers channel state via InjectReplay.
func (p *Proc) MarkReplaying() { p.phase = PhaseReplaying }

// MarkLive completes a recovery: the process rejoins the computation. A
// process that was down counts as a restart and contributes its outage to
// RecoveryTime; a live peer that was rolled back counts as a peer
// rollback (the cost metric coordinated recovery pays and log-based
// recovery avoids). The checkpoint ticker is re-armed if the process had
// one scheduled.
func (p *Proc) MarkLive() {
	now := p.c.sim.Now()
	if p.downSince >= 0 {
		p.c.metrics.Restarts++
		p.c.metrics.RecoveryTime += now - p.downSince
		p.downSince = -1
	} else {
		p.c.metrics.PeerRollbacks++
	}
	p.phase = PhaseLive
	if p.c.cfg.ScheduleCheckpoints &&
		(p.c.cfg.ScheduledProcs <= 0 || int(p.id) < p.c.cfg.ScheduledProcs) {
		p.ticker = p.c.sim.NewTicker(p.c.cfg.CheckpointInterval, 0, func() {
			p.MaybeInitiate()
		})
	}
	p.Trace(trace.KindNote, -1, "live again")
}

// InjectReplay redelivers one logged or in-transit computation message
// from the given sender straight into the engine (the reliable-channel
// replay step of recovery: content-free counter deltas, csn 0, no
// trigger).
func (p *Proc) InjectReplay(from protocol.ProcessID) {
	p.c.metrics.ReplayedMessages++
	m := &protocol.Message{
		Kind: protocol.KindComputation,
		From: from,
		To:   p.id,
		Size: compMsgBytes,
	}
	p.engine.HandleMessage(m)
}

// CountDedupedReplays records log entries the executor skipped because
// the restored checkpoint already covered them (the exactly-once rule).
func (p *Proc) CountDedupedReplays(n uint64) { p.c.metrics.DedupedReplays += n }

// LoggedSends reports the sender-based message log's count toward one
// destination (0 unless the cluster runs with MessageLogging).
func (p *Proc) LoggedSends(to protocol.ProcessID) uint64 {
	return protocol.CounterAt(p.logged, int(to))
}

// ForwardSentTo raises the process's send counter toward one peer to at
// least v (the log-mode fast-forward: the restored sender's counter must
// cover everything its peers already consumed, or the post-recovery state
// would count those deliveries as orphans).
func (p *Proc) ForwardSentTo(to protocol.ProcessID, v uint64) {
	p.sentTo = growCounter(p.sentTo, int(to), p.c.cfg.N)
	if v > p.sentTo[int(to)] {
		p.sentTo[int(to)] = v
	}
}

// StableTransferNow models the checkpoint-restore transfer from the MSS
// over the wireless link (recovery's one unavoidable stable read). With
// a payload plane the restore is real: the newest permanent image is
// materialized through the chunk backend, handed back to the workload,
// and the medium is charged the deduped distinct-chunk bytes the
// manifest actually requires — not the fixed checkpointBytes.
func (p *Proc) StableTransferNow() {
	transfer := checkpointBytes
	if pay := p.ckpt.Payload; pay != nil {
		img, ok, err := pay.PermanentPayload()
		if p.check("restore payload", err) && ok {
			if n, priced := pay.RestorePayloadBytes(); priced {
				transfer = int(n)
			}
			if p.c.cfg.RestoreImage != nil {
				p.c.cfg.RestoreImage(p.id, img)
			}
		}
	}
	p.c.transport.StableTransfer(p.id, transfer, nil)
}
