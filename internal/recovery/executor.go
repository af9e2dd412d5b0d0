package recovery

// Executor performs live recovery on a running simulated cluster: it rolls
// the cluster back to a recovery line and resumes the computation. It is
// the only code that restores a line. Two strategies are implemented,
// matching the Table-1-style comparison:
//
//   - ModeRollback: coordinated rollback. Every process restores its
//     checkpoint from the newest committed line (Theorem 1 guarantees the
//     line is consistent), in-transit channel state is replayed, and the
//     whole cluster resumes. Cost: N-1 peer rollbacks per failure.
//
//   - ModeLog: log-based recovery over independent checkpoints. Only the
//     failed process restores — from its own newest permanent checkpoint —
//     and its peers' sender-based message logs are replayed into it with
//     exactly-once dedup against the checkpoint's receive counters. Peers
//     keep computing; peer rollback count is zero.
//
// Both strategies bump the epoch of every restored process, which fences
// off all in-flight deliveries belonging to the discarded execution (the
// runtime drops them as stale). That fence is what makes the replay
// exactly-once: the only copy of a logged message that survives recovery
// is the one the executor injects.

import (
	"errors"
	"fmt"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

// Mode selects the recovery strategy.
type Mode int

// Recovery strategies.
const (
	// ModeRollback restores every process to the newest committed line.
	ModeRollback Mode = iota + 1
	// ModeLog restores only the failed process and replays its peers'
	// message logs (requires simrt.Config.MessageLogging and the
	// log-based engine family).
	ModeLog
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeRollback:
		return "rollback"
	case ModeLog:
		return "log"
	default:
		return "mode?"
	}
}

// Executor drives live recovery on one cluster.
type Executor struct {
	cluster *simrt.Cluster
	mode    Mode

	// Filled by the restart hook Install schedules.
	reports      []*Report
	inconsistent error
}

// NewExecutor validates the pairing and returns an executor. ModeLog
// requires sender-based message logging to be enabled (there is nothing
// to replay from otherwise).
func NewExecutor(cluster *simrt.Cluster, mode Mode) (*Executor, error) {
	switch mode {
	case ModeRollback:
	case ModeLog:
		if !cluster.Config().MessageLogging {
			return nil, errors.New("recovery: ModeLog requires simrt.Config.MessageLogging")
		}
	default:
		return nil, fmt.Errorf("recovery: unknown mode %d", mode)
	}
	return &Executor{cluster: cluster, mode: mode}, nil
}

// Report describes one executed recovery.
type Report struct {
	Victim      protocol.ProcessID
	Mode        Mode
	RestoredCSN int    // csn of the victim's restored checkpoint
	PeersRolled int    // live processes rolled back alongside the victim
	Replayed    uint64 // messages redelivered during this recovery
	Deduped     uint64 // log entries skipped by the exactly-once rule
}

// Install schedules the crash plans with Recover as the restart hook, and
// checks the live states right after each recovery, inside its event:
// later traffic cannot mask an orphan a rollback left behind or a message
// log replay delivered twice. Reports and Inconsistent read the outcome.
func (x *Executor) Install(plans []simrt.CrashPlan) error {
	return x.cluster.InstallCrashes(plans, func(pid protocol.ProcessID) error {
		rep, err := x.Recover(pid)
		if err != nil {
			return err
		}
		x.reports = append(x.reports, rep)
		if err := consistency.Check(x.cluster.States()); err != nil && x.inconsistent == nil {
			x.inconsistent = fmt.Errorf("after recovering P%d: %w", pid, err)
		}
		return nil
	})
}

// Reports returns one report per recovery the installed hook ran, in
// order.
func (x *Executor) Reports() []*Report { return x.reports }

// Inconsistent returns the first installed recovery that left the live
// states inconsistent, or nil.
func (x *Executor) Inconsistent() error { return x.inconsistent }

// Recover brings the crashed process back to live, per the configured
// mode. It must run as a simulation event (Install schedules it).
func (x *Executor) Recover(victim protocol.ProcessID) (*Report, error) {
	if victim < 0 || victim >= x.cluster.N() {
		return nil, fmt.Errorf("recovery: unknown process P%d", victim)
	}
	p := x.cluster.Proc(victim)
	if !p.Failed() {
		return nil, fmt.Errorf("recovery: P%d is not down", victim)
	}
	switch x.mode {
	case ModeLog:
		return x.recoverLog(victim)
	default:
		return x.recoverRollback(victim)
	}
}

// stores collects every process's stable store for LatestLine.
func (x *Executor) stores() map[protocol.ProcessID]checkpoint.Store {
	out := make(map[protocol.ProcessID]checkpoint.Store, x.cluster.N())
	for i := 0; i < x.cluster.N(); i++ {
		out[i] = x.cluster.Proc(i).Stable()
	}
	return out
}

// completeCommits finishes any commit that was mid-broadcast at the
// crash: a tentative checkpoint whose trigger is permanent at *some*
// process belongs to an instance the initiator decided to commit, so the
// newest-permanent cut is only consistent once those stragglers are
// promoted. Every remaining tentative belongs to an undecided (now
// doomed) instance and is dropped — also clearing the way for the
// resumed execution to reuse triggers without ErrTentativePending.
func (x *Executor) completeCommits() error {
	committed := make(map[protocol.Trigger]bool)
	n := x.cluster.N()
	for i := 0; i < n; i++ {
		for _, rec := range x.cluster.Proc(i).Stable().History() {
			if !rec.Trigger.IsNone() {
				committed[rec.Trigger] = true
			}
		}
	}
	now := x.cluster.Sim().Now()
	for i := 0; i < n; i++ {
		k := x.cluster.Proc(i).Checkpoints()
		for _, trig := range k.Stable.TentativeTriggers() {
			if committed[trig] {
				if err := k.CommitInDoubt(trig, now); err != nil {
					return fmt.Errorf("recovery: complete commit P%d %+v: %w", i, trig, err)
				}
			}
		}
		if _, err := k.DropTentatives(); err != nil {
			return fmt.Errorf("recovery: drop tentatives P%d: %w", i, err)
		}
	}
	return nil
}

// restoreProc resets one process onto a checkpoint state: volatile wipe +
// epoch bump (BeginRestore), engine numbering alignment, counter restore,
// and the stable-read transfer from the MSS.
func (x *Executor) restoreProc(p *simrt.Proc, st protocol.State) {
	p.BeginRestore()
	if r, ok := p.Engine().(protocol.CheckpointRestorer); ok {
		r.RestoreFromCheckpoint(st.CSN)
	}
	p.SetCounters(st.SentTo, st.RecvFrom)
	p.StableTransferNow()
}

// recoverRollback is the coordinated strategy: complete in-flight
// commits, validate the newest line, roll every process back to it,
// replay the line's in-transit channel state, resume.
func (x *Executor) recoverRollback(victim protocol.ProcessID) (*Report, error) {
	if err := x.completeCommits(); err != nil {
		return nil, err
	}
	line, err := LatestLine(x.stores())
	if err != nil {
		return nil, err
	}
	n := x.cluster.N()
	rep := &Report{Victim: victim, Mode: ModeRollback, PeersRolled: n - 1}
	for i := 0; i < n; i++ {
		p := x.cluster.Proc(i)
		st := line.Checkpoints[i].State
		x.restoreProc(p, st)
		x.cluster.PurgeRolledBack(i, st.CSN)
		if i == victim {
			rep.RestoredCSN = st.CSN
		}
	}
	x.cluster.ResetOwners()
	// Replay the line's channel state: messages sent before the sender's
	// checkpoint and unreceived at the receiver's are still owed by the
	// reliable channels. Channels are walked in (from, to) order so the
	// replay schedule is deterministic.
	for from := 0; from < n; from++ {
		sf := line.Checkpoints[from].State
		for to := range sf.SentTo {
			if to == from {
				continue
			}
			sent := sf.SentTo[to]
			recv := protocol.CounterAt(line.Checkpoints[to].State.RecvFrom, from)
			for k := recv; k < sent; k++ {
				x.cluster.Proc(to).InjectReplay(from)
				rep.Replayed++
			}
		}
	}
	for i := 0; i < n; i++ {
		x.cluster.Proc(i).MarkLive()
	}
	return rep, nil
}

// recoverLog is the log-based strategy: only the victim restores (from
// its own newest permanent checkpoint), then its peers' sender logs are
// replayed into it with exactly-once dedup, and its own send counters are
// fast-forwarded over everything its peers already consumed (modelling
// the piecewise-deterministic re-execution regenerating those sends).
// Nobody else rolls back.
func (x *Executor) recoverLog(victim protocol.ProcessID) (*Report, error) {
	p := x.cluster.Proc(victim)
	perm := p.Stable().Permanent()
	st := perm.State
	rep := &Report{Victim: victim, Mode: ModeLog, RestoredCSN: st.CSN}
	x.restoreProc(p, st)
	if _, err := p.Checkpoints().DropTentatives(); err != nil {
		return nil, fmt.Errorf("recovery: drop tentatives P%d: %w", victim, err)
	}
	x.cluster.PurgeRolledBack(victim, st.CSN)
	n := x.cluster.N()
	for q := 0; q < n; q++ {
		if q == victim {
			continue
		}
		logged := x.cluster.Proc(q).LoggedSends(victim)
		covered := protocol.CounterAt(st.RecvFrom, q)
		p.CountDedupedReplays(covered)
		rep.Deduped += covered
		for k := covered; k < logged; k++ {
			p.InjectReplay(q)
			rep.Replayed++
		}
	}
	// Fast-forward the victim's send counters: a peer may have consumed
	// sends the restored checkpoint predates. Re-execution from the
	// checkpoint would regenerate them deterministically, so the recovered
	// state must (a) count them as sent — or every such delivery becomes
	// an orphan — and (b) deliver the ones the checkpoint recorded but the
	// peer has not seen (they were in flight, and the epoch fence ate
	// them).
	for q := 0; q < n; q++ {
		if q == victim {
			continue
		}
		ckptSent := protocol.CounterAt(st.SentTo, q)
		peer := x.cluster.Proc(q)
		peerRecv := protocol.CounterAt(peer.CaptureState().RecvFrom, victim)
		target := ckptSent
		if peerRecv > target {
			target = peerRecv
		}
		p.ForwardSentTo(q, target)
		for k := peerRecv; k < ckptSent; k++ {
			peer.InjectReplay(victim)
			rep.Replayed++
		}
	}
	p.MarkLive()
	return rep, nil
}
