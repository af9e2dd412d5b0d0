// Package explore is a schedule-space model checker for the
// mutable-checkpoint protocol. It takes control of the one source of
// nondeterminism the deterministic DES kernel leaves — the order in which
// same-timestamp events fire — and searches the interleaving space of
// small scripted scenarios for safety violations.
//
// The pieces:
//
//   - A Scenario scripts a fixed workload (sends, initiations, aborts) on
//     a quantized-latency network, so many events land on the same instant
//     and every such instant becomes an explicit tie-break decision point
//     via the kernel's des.Chooser hook.
//   - Strategies drive the chooser: Replay runs an exact recorded
//     schedule (choices past the end default to schedule order),
//     RandomWalk samples schedules from a seeded xrand stream, and
//     Exhaust walks the whole bounded choice tree depth-first with a
//     state-fingerprint visited set for pruning.
//   - An invariant oracle checks every run: each committed recovery line
//     is orphan-free (Theorem 1) and no tentative/mutable checkpoint or
//     termination weight leaks after the run drains (Lemma 2 / §3.6 clean
//     abort), both by simrt's run audit, the one the chaos gauntlet uses;
//     at most one pending tentative per process (Lemma 1); and the run
//     terminates within its step budget (Theorem 2).
//   - Every run records its schedule, so a violation is reproducible
//     byte-for-byte; Shrink minimizes a failing schedule's divergence
//     from the default order, and wire.ScheduleRecord persists it.
//
// cmd/mcpcheck is the CLI; the committed corpus under testdata holds
// shrunken counterexamples for the seeded defects under testdata/mutants,
// replayed as regression tests.
package explore

import (
	"fmt"
	"time"

	"mutablecp/internal/algorithms/logbased"
	"mutablecp/internal/core"
	"mutablecp/internal/des"
	"mutablecp/internal/dyadic"
	"mutablecp/internal/netsim"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
	"mutablecp/internal/trace"
	"mutablecp/internal/xrand"
)

// Send scripts one application message, sent at quantum At.
type Send struct {
	At       int
	From, To protocol.ProcessID
}

// Init scripts a checkpointing initiation at quantum At.
type Init struct {
	At int
	By protocol.ProcessID
}

// Abort scripts a §3.6 initiator abort at quantum At (a no-op if By is
// not initiating at that instant).
type Abort struct {
	At int
	By protocol.ProcessID
}

// Crash scripts a process failure at quantum At, recovered live by the
// recovery executor RestartAfter quanta later. The crash event lands on
// the quantum lattice, so it ties against in-flight deliveries and
// protocol messages — the interleaving decides whether the crash hits
// before or after each same-instant event.
type Crash struct {
	At           int
	Proc         protocol.ProcessID
	RestartAfter int
}

// Scenario is one fully scripted run: N processes on a network where
// every message takes exactly Quantum, with all script times on the
// quantum lattice so concurrent activity collides on the same instants.
type Scenario struct {
	Name    string
	N       int
	Quantum time.Duration
	// Budget bounds kernel steps; exceeding it is a termination violation.
	Budget int

	Inits   []Init
	Sends   []Send
	Aborts  []Abort
	Crashes []Crash

	// LogBased switches the engines to the log-based family (independent
	// checkpoints + sender-based message logging); crashes then recover
	// via recovery.ModeLog instead of coordinated rollback. The oracle's
	// committed-line check is skipped — independent checkpoints do not
	// form consistent lines by design — and the post-recovery live-state
	// check takes its place.
	LogBased bool
}

func (s Scenario) defaults() Scenario {
	if s.N == 0 {
		s.N = 4
	}
	if s.Quantum == 0 {
		s.Quantum = time.Millisecond
	}
	if s.Budget == 0 {
		s.Budget = 4096
	}
	return s
}

// Violation kinds reported by the oracle.
const (
	KindOrphanLine   = "orphan-line"   // Theorem 1: orphan message on a committed line
	KindLeak         = "leak"          // §3.6/Lemma 2: leaked checkpoint or unreturned weight
	KindClusterError = "cluster-error" // runtime invariant tripped inside simrt
	KindPendingBound = "pending-bound" // Lemma 1: >1 pending tentative on one process
	KindWeightBound  = "weight-bound"  // Lemma 2: initiator weight exceeded 1
	KindTermination  = "termination"   // Theorem 2: step budget exhausted

	// Recovery oracle: the live states are consistency-checked
	// synchronously inside every recovery event, before post-recovery
	// traffic can mask a violation. A receive count exceeding the matching
	// send count means coordinated rollback left an orphan...
	KindOrphanReplay = "orphan-after-replay"
	// ...or log replay delivered a logged message twice (the dedup
	// against the restored checkpoint's receive counters failed).
	KindDuplicateDelivery = "duplicate-delivery"
)

// Violation is one invariant failure found by the oracle.
type Violation struct {
	Kind   string
	Detail string
}

func (v *Violation) String() string { return v.Kind + ": " + v.Detail }

// RunResult is the outcome of executing one schedule of a scenario.
type RunResult struct {
	// Schedule holds the choice taken at every decision point, in order;
	// Arities holds the number of ready events at each (always >= 2).
	Schedule []int
	Arities  []int
	// Steps is the number of kernel events fired.
	Steps int
	// Fingerprint digests the full execution (trace, final states,
	// permanent checkpoints); equal schedules must produce equal
	// fingerprints.
	Fingerprint uint64
	// Violation is nil for a clean run.
	Violation *Violation
}

// Decisions reports how many tie-break decision points the run hit.
func (r *RunResult) Decisions() int { return len(r.Schedule) }

// quantumNet delivers every message after exactly the configured latency,
// regardless of size or contention. Unlike the shared-medium LAN (which
// serializes transmissions and so spreads arrivals out in time), it keeps
// concurrent activity on the quantum lattice — maximizing same-instant
// ties, which is exactly the space the explorer searches.
type quantumNet struct {
	sim     *des.Simulator
	n       int
	latency time.Duration
}

var _ netsim.Transport = (*quantumNet)(nil)

func (q *quantumNet) Unicast(_, _ protocol.ProcessID, _ int, deliver des.Firer) {
	q.sim.Schedule(q.latency, deliver.Fire)
}

func (q *quantumNet) Broadcast(from protocol.ProcessID, _ int, deliver func(to protocol.ProcessID)) {
	for to := 0; to < q.n; to++ {
		if protocol.ProcessID(to) == from {
			continue
		}
		to := protocol.ProcessID(to)
		q.sim.Schedule(q.latency, func() { deliver(to) })
	}
}

func (q *quantumNet) StableTransfer(_ protocol.ProcessID, _ int, done des.Firer) {
	if done != nil {
		q.sim.Schedule(q.latency, done.Fire)
	}
}

// recorder drives the kernel's chooser hook with a policy and records
// every decision (choice and arity) for replay.
type recorder struct {
	policy  func(k int) int
	choices []int
	arities []int
}

func (r *recorder) Choose(_ time.Duration, k int) int {
	c := r.policy(k)
	if c < 0 || c >= k {
		c = 0
	}
	r.choices = append(r.choices, c)
	r.arities = append(r.arities, k)
	return c
}

// replayPolicy replays a fixed schedule; decisions past its end take the
// default choice 0 (schedule order).
func replayPolicy(schedule []int) func(k int) int {
	i := 0
	return func(k int) int {
		if i >= len(schedule) {
			return 0
		}
		c := schedule[i]
		i++
		return c
	}
}

// Replay executes the scenario under the exact recorded schedule.
func (s Scenario) Replay(schedule []int) (*RunResult, error) {
	return s.execute(&recorder{policy: replayPolicy(schedule)})
}

// RandomWalk executes the scenario with seeded uniform tie-breaks.
func (s Scenario) RandomWalk(seed uint64) (*RunResult, error) {
	rng := xrand.New(seed)
	return s.execute(&recorder{policy: func(k int) int { return rng.Intn(k) }})
}

// engineProbe is the core.Engine surface the per-step invariant checks
// need.
type engineProbe interface {
	Initiating() bool
	Weight() *dyadic.Sum
	PendingTentatives() int
}

// execute builds the cluster, installs the script, and steps the kernel
// to completion under the recorder, checking invariants as it goes.
func (s Scenario) execute(rec *recorder) (*RunResult, error) {
	s = s.defaults()
	tl := trace.New()
	factory := func(env protocol.Env) protocol.Engine { return core.New(env) }
	if s.LogBased {
		factory = func(env protocol.Env) protocol.Engine { return logbased.New(env) }
	}
	cluster, err := simrt.New(simrt.Config{
		N:         s.N,
		Seed:      1,
		NewEngine: factory,
		NewTransport: func(sim *des.Simulator, n int) netsim.Transport {
			return &quantumNet{sim: sim, n: n, latency: s.Quantum}
		},
		// Local checkpoint copies cost one quantum, so busy-delayed
		// deliveries stay on the tie lattice.
		MutableSaveTime:  s.Quantum,
		SingleInitiation: true,
		MessageLogging:   s.LogBased,
		Trace:            tl,
	})
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	sim := cluster.Sim()
	// The executor checks the live states inside every recovery event; the
	// step loop stops on the first recovery that left them inconsistent.
	var exec *recovery.Executor
	mode, recKind := recovery.ModeRollback, KindOrphanReplay
	if s.LogBased {
		mode, recKind = recovery.ModeLog, KindDuplicateDelivery
	}
	if len(s.Crashes) > 0 {
		exec, err = recovery.NewExecutor(cluster, mode)
		if err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
		plans := make([]simrt.CrashPlan, 0, len(s.Crashes))
		for _, c := range s.Crashes {
			plans = append(plans, simrt.CrashPlan{
				Proc:         c.Proc,
				At:           time.Duration(c.At) * s.Quantum,
				RestartAfter: time.Duration(c.RestartAfter) * s.Quantum,
			})
		}
		if err := exec.Install(plans); err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
	}
	// Install script events up front, in category order (initiations,
	// sends, aborts): ties among them break in this order by default and
	// become decision points under a chooser.
	for _, in := range s.Inits {
		in := in
		sim.ScheduleAt(time.Duration(in.At)*s.Quantum, func() {
			cluster.Proc(in.By).MaybeInitiate()
		})
	}
	for _, sd := range s.Sends {
		sd := sd
		sim.ScheduleAt(time.Duration(sd.At)*s.Quantum, func() {
			cluster.SendApp(sd.From, sd.To, nil)
		})
	}
	for _, ab := range s.Aborts {
		ab := ab
		sim.ScheduleAt(time.Duration(ab.At)*s.Quantum, func() {
			if a, ok := cluster.Proc(ab.By).Engine().(protocol.Initiator); ok && a.Initiating() {
				_ = a.AbortCurrent() // fails only when not initiating, ruled out above
			}
		})
	}
	sim.SetChooser(rec)

	res := &RunResult{}
	for sim.Step() {
		res.Steps++
		if exec != nil && exec.Inconsistent() != nil {
			res.Violation = &Violation{Kind: recKind, Detail: exec.Inconsistent().Error()}
			break
		}
		if res.Violation = s.stepInvariants(cluster); res.Violation != nil {
			break
		}
		if res.Steps >= s.Budget {
			res.Violation = &Violation{Kind: KindTermination, Detail: fmt.Sprintf(
				"budget of %d steps exhausted with %d events pending", s.Budget, sim.Pending())}
			break
		}
	}
	res.Schedule = append([]int(nil), rec.choices...)
	res.Arities = append([]int(nil), rec.arities...)
	if res.Violation == nil {
		res.Violation = s.verify(cluster)
	}
	res.Fingerprint = cluster.Digest()
	return res, nil
}

// stepInvariants checks the always-true invariants after every kernel
// event: Lemma 1 (at most one pending tentative per process under single
// initiation) and Lemma 2's upper bound (an initiator's accumulated
// weight never exceeds 1).
func (s Scenario) stepInvariants(cluster *simrt.Cluster) *Violation {
	for p := 0; p < s.N; p++ {
		eng, ok := cluster.Proc(protocol.ProcessID(p)).Engine().(engineProbe)
		if !ok {
			continue
		}
		if pend := eng.PendingTentatives(); pend > 1 {
			return &Violation{Kind: KindPendingBound, Detail: fmt.Sprintf(
				"P%d holds %d pending tentative checkpoints", p, pend)}
		}
		if eng.Initiating() && eng.Weight().Over() {
			return &Violation{Kind: KindWeightBound, Detail: fmt.Sprintf(
				"P%d accumulated weight %v > 1", p, eng.Weight())}
		}
	}
	return nil
}

// verify is the post-run oracle, simrt's run audit applied to a drained
// run: every committed recovery line is orphan-free and nothing leaked.
// Independent checkpoints never form consistent lines, so under LogBased
// only the leak audit runs; recovery correctness is checked live
// (KindDuplicateDelivery) instead.
func (s Scenario) verify(cluster *simrt.Cluster) *Violation {
	for _, e := range cluster.Errors() {
		return &Violation{Kind: KindClusterError, Detail: e.Error()}
	}
	if !s.LogBased {
		if _, _, err := cluster.AuditLines(); err != nil {
			return &Violation{Kind: KindOrphanLine, Detail: err.Error()}
		}
	}
	if err := cluster.AuditLeaks(); err != nil {
		return &Violation{Kind: KindLeak, Detail: err.Error()}
	}
	return nil
}
