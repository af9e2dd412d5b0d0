package explore

import (
	"fmt"

	"mutablecp/internal/protocol"
)

// Built-in scenario catalog. Each scenario is a small scripted run whose
// same-instant collisions cover one family of protocol races:
//
//   - race: the §3.3.3 triggered-message race. An initiator's checkpoint
//     request and its in-instance computation message reach the same
//     process on the same instant; the delivery order decides whether a
//     mutable checkpoint must be taken before the message is processed.
//   - abort: the §3.6 race. The initiator aborts while requests and
//     replies are still in flight, so the abort broadcast collides with
//     them at every participant.
//   - burst: dense all-to-all traffic around an initiation, producing
//     wide decision points (many events per instant) and avalanche-style
//     request propagation.

// RaceScenario scripts the triggered-message race on n >= 3 processes.
//
// Quanta 0-1: P1 and P2 (and every higher process) send to P0, creating
// the dependencies the initiation will propagate along; P1 also sends to
// P2, arming the orphan channel P1->P2 (P1's send is in no checkpoint
// yet). Quantum 2: P0 initiates and simultaneously sends an application
// message to P1 — so P1 receives P0's checkpoint request and P0's
// in-instance computation message on the same instant, and the tie-break
// decides whether §3.3.3's mutable checkpoint is P1's only protection for
// its recorded send. A second initiation late in the script exercises the
// old_csn suppression paths (Fig. 4) on the post-commit state.
func RaceScenario(n int) Scenario {
	if n < 3 {
		n = 3
	}
	s := Scenario{
		Name: "race",
		N:    n,
		Sends: []Send{
			{At: 0, From: 1, To: 2},
			{At: 0, From: 1, To: 0},
			{At: 0, From: 2, To: 0},
		},
		Inits: []Init{
			{At: 2, By: 0},
			{At: 24, By: 1},
		},
	}
	for p := 3; p < n; p++ {
		s.Sends = append(s.Sends, Send{At: 0, From: protocol.ProcessID(p), To: 0})
	}
	s.Sends = append(s.Sends,
		// The race message: sent by the initiator at the initiation
		// instant, carrying the trigger iff the initiation fired first.
		Send{At: 2, From: 0, To: 1},
		// Traffic inside the instance window (avalanche fodder).
		Send{At: 3, From: 1, To: 2},
		Send{At: 4, From: 2, To: 1},
		// Rearm the orphan channel before the second initiation, and
		// race its request against a triggered message the same way.
		Send{At: 22, From: 2, To: 1},
		Send{At: 22, From: 0, To: 1},
		Send{At: 24, From: 1, To: 2},
	)
	return s
}

// AbortScenario scripts the §3.6 abort race on n >= 3 processes: the
// initiator gives up one quantum after initiating, so the abort broadcast
// is in flight together with the requests (and races the replies back).
// A later initiation proves the cluster is still healthy after the abort
// (old_csn rollback, discarded mutables).
func AbortScenario(n int) Scenario {
	if n < 3 {
		n = 3
	}
	s := Scenario{
		Name: "abort",
		N:    n,
		Sends: []Send{
			{At: 0, From: 1, To: 2},
			{At: 0, From: 1, To: 0},
			{At: 0, From: 2, To: 0},
			{At: 2, From: 0, To: 1},
			{At: 3, From: 1, To: 2},
		},
		Inits: []Init{
			{At: 2, By: 0},
			{At: 24, By: 2},
		},
		Aborts: []Abort{
			{At: 3, By: 0},
		},
	}
	for p := 3; p < n; p++ {
		s.Sends = append(s.Sends, Send{At: 0, From: protocol.ProcessID(p), To: 0})
	}
	s.Sends = append(s.Sends,
		Send{At: 22, From: 1, To: 0},
		Send{At: 22, From: 0, To: 2},
		Send{At: 24, From: 2, To: 1},
	)
	return s
}

// BurstScenario scripts dense ring traffic with an initiation in the
// middle of a burst: every process sends every quantum for a few quanta,
// so each instant has n simultaneous deliveries and the decision points
// are wide. It is the throughput scenario (many steps and decisions per
// run) and a stress test for request-avalanche interleavings.
func BurstScenario(n int) Scenario {
	if n < 3 {
		n = 3
	}
	s := Scenario{Name: "burst", N: n}
	for t := 0; t < 5; t++ {
		for p := 0; p < n; p++ {
			s.Sends = append(s.Sends, Send{
				At:   t,
				From: protocol.ProcessID(p),
				To:   protocol.ProcessID((p + 1 + t%(n-1)) % n),
			})
		}
	}
	// Drop accidental self-sends from the rotation.
	kept := s.Sends[:0]
	for _, sd := range s.Sends {
		if sd.From != sd.To {
			kept = append(kept, sd)
		}
	}
	s.Sends = kept
	s.Inits = []Init{
		{At: 2, By: 0},
		{At: 30, By: n - 1},
	}
	s.Sends = append(s.Sends,
		Send{At: 28, From: 0, To: protocol.ProcessID(n - 1)},
		Send{At: 30, From: protocol.ProcessID(n - 1), To: 0},
	)
	return s
}

// RecoverScenario scripts a mid-protocol crash recovered by coordinated
// rollback, on n >= 3 processes with the mutable engine. An early
// initiation commits a line; a second initiation is still in flight when
// P1 crashes at quantum 30 — the crash event ties against the instance's
// requests and replies, so the interleaving decides whether P1 dies
// before or after checkpointing, mid-commit, or holding a reply. The
// executor must complete or discard the half-done instance, roll everyone
// back to the committed line, and leave the cluster orphan-free
// (KindOrphanReplay); a post-recovery initiation proves the resumed run
// still commits.
func RecoverScenario(n int) Scenario {
	if n < 3 {
		n = 3
	}
	s := Scenario{
		Name: "recover",
		N:    n,
		Sends: []Send{
			{At: 0, From: 1, To: 2},
			{At: 0, From: 1, To: 0},
			{At: 0, From: 2, To: 0},
			{At: 3, From: 0, To: 1},
			{At: 5, From: 2, To: 1},
		},
		Inits: []Init{
			{At: 4, By: 0},
			// In flight when the crash lands.
			{At: 28, By: 2},
			// Post-recovery health: the resumed run commits a new line.
			{At: 52, By: 0},
		},
		Crashes: []Crash{
			{At: 30, Proc: 1, RestartAfter: 10},
		},
	}
	for p := 3; p < n; p++ {
		s.Sends = append(s.Sends, Send{At: 0, From: protocol.ProcessID(p), To: 1})
	}
	s.Sends = append(s.Sends,
		// Traffic into the doomed instance's window.
		Send{At: 28, From: 1, To: 2},
		Send{At: 29, From: 0, To: 1},
		// Sent into the down window: lost, then erased by the rollback.
		Send{At: 34, From: 2, To: 1},
		// Post-recovery traffic.
		Send{At: 48, From: 1, To: 0},
		Send{At: 50, From: 0, To: 2},
	)
	return s
}

// ReplayScenario scripts a crash recovered from sender-based message
// logs, on n >= 3 log-based processes. P1 checkpoints (independently)
// after receiving early traffic, receives more — logged at the senders —
// and crashes. Recovery restores P1's own checkpoint alone and replays
// the logs with exactly-once dedup against the checkpoint's receive
// counters; the live-state check after the recovery event catches any
// double delivery (KindDuplicateDelivery, the skip-dedup mutant's
// signal) or lost message.
func ReplayScenario(n int) Scenario {
	if n < 3 {
		n = 3
	}
	s := Scenario{
		Name:     "replay",
		N:        n,
		LogBased: true,
		Sends: []Send{
			// Covered by P1's checkpoint: the dedup corpus.
			{At: 0, From: 0, To: 1},
			{At: 1, From: 2, To: 1},
			{At: 2, From: 1, To: 2},
		},
		Inits: []Init{
			{At: 6, By: 1},
			{At: 8, By: 0},
			// Post-recovery health.
			{At: 44, By: 2},
		},
		Crashes: []Crash{
			{At: 20, Proc: 1, RestartAfter: 8},
		},
	}
	for p := 3; p < n; p++ {
		s.Sends = append(s.Sends, Send{At: 1, From: protocol.ProcessID(p), To: 1})
	}
	s.Sends = append(s.Sends,
		// After the checkpoint, before the crash: replayed from the logs.
		Send{At: 10, From: 0, To: 1},
		Send{At: 12, From: 2, To: 1},
		Send{At: 14, From: 1, To: 0},
		// Racing the crash instant.
		Send{At: 19, From: 0, To: 1},
		// Into the down window: lost on delivery, recovered from the log.
		Send{At: 24, From: 2, To: 1},
		// Post-recovery traffic.
		Send{At: 40, From: 1, To: 2},
		Send{At: 42, From: 0, To: 1},
	)
	return s
}

// ScenarioByName resolves a catalog scenario at the given size.
func ScenarioByName(name string, n int) (Scenario, error) {
	switch name {
	case "race":
		return RaceScenario(n), nil
	case "abort":
		return AbortScenario(n), nil
	case "burst":
		return BurstScenario(n), nil
	case "recover":
		return RecoverScenario(n), nil
	case "replay":
		return ReplayScenario(n), nil
	default:
		return Scenario{}, fmt.Errorf("explore: unknown scenario %q (have race, abort, burst, recover, replay)", name)
	}
}

// ScenarioNames lists the catalog for CLIs and tests.
func ScenarioNames() []string { return []string{"race", "abort", "burst", "recover", "replay"} }
