package recovery_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/algorithms/logbased"
	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
)

// recoveryRun is one crash-and-recover simulation and everything the
// assertions need from it.
type recoveryRun struct {
	cluster *simrt.Cluster
	rep     *recovery.Report
	// postErr is the orphan/duplicate check on the live states taken
	// synchronously inside the recovery event, before any new traffic can
	// mask a violation.
	postErr error
	fp      string
}

const (
	crashAt      = 290 * time.Second
	restartAfter = 30 * time.Second
	horizon      = 600 * time.Second
)

// runRecovery drives a 5-process cluster with steady p2p traffic and
// 60-second checkpoint intervals, crashes P3 mid-run, recovers it through
// the executor, and runs on to the horizon.
func runRecovery(t *testing.T, algo func(env protocol.Env) protocol.Engine, mode recovery.Mode, logging bool, seed uint64) *recoveryRun {
	t.Helper()
	cluster, err := simrt.New(simrt.Config{
		N:                   5,
		Seed:                seed,
		NewEngine:           algo,
		CheckpointInterval:  60 * time.Second,
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		MessageLogging:      logging,
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	exec, err := recovery.NewExecutor(cluster, mode)
	if err != nil {
		t.Fatalf("new executor: %v", err)
	}
	res := &recoveryRun{cluster: cluster}
	hook := func(pid protocol.ProcessID) error {
		rep, err := exec.Recover(pid)
		if err != nil {
			return err
		}
		res.rep = rep
		res.postErr = consistency.Check(cluster.States())
		return nil
	}
	plans := []simrt.CrashPlan{{Proc: 3, At: crashAt, RestartAfter: restartAfter}}
	if err := cluster.InstallCrashes(plans, hook); err != nil {
		t.Fatalf("install crashes: %v", err)
	}
	gen := &simrt.PointToPoint{Rate: 2}
	gen.Install(cluster)
	cluster.Start()
	if err := cluster.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	gen.Stop()
	cluster.StopTimers()
	if err := cluster.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res.fp = fingerprint(cluster)
	return res
}

// fingerprint digests the full observable outcome: final counters,
// permanent checkpoints, recovery metrics, and the committed-instance
// schedule. Byte-identical across reruns of the same seed.
func fingerprint(c *simrt.Cluster) string {
	var b strings.Builder
	met := c.Metrics()
	fmt.Fprintf(&b, "crashes=%d restarts=%d replayed=%d deduped=%d stale=%d peers=%d rt=%v;",
		met.Crashes, met.Restarts, met.ReplayedMessages, met.DedupedReplays,
		met.StaleDropped, met.PeerRollbacks, met.RecoveryTime)
	for i := 0; i < c.N(); i++ {
		st := c.Proc(i).CaptureState()
		fmt.Fprintf(&b, "P%d csn=%d sent=%v recv=%v;",
			i, c.Proc(i).Stable().Permanent().State.CSN, st.SentTo, st.RecvFrom)
	}
	for _, rec := range met.Completed() {
		fmt.Fprintf(&b, "%+v %v-%v c=%v;", rec.Trigger, rec.Start, rec.End, rec.Committed)
	}
	return b.String()
}

func mutableEngine(env protocol.Env) protocol.Engine  { return core.New(env) }
func logbasedEngine(env protocol.Env) protocol.Engine { return logbased.New(env) }

// TestRollbackRecoveryEndToEnd: a seeded crash mid-protocol is recovered
// live by coordinated rollback — the resumed run is orphan-free, commits
// new lines, and every peer rolled back exactly once.
func TestRollbackRecoveryEndToEnd(t *testing.T) {
	r := runRecovery(t, mutableEngine, recovery.ModeRollback, false, 42)
	for _, err := range r.cluster.Errors() {
		t.Errorf("cluster error: %v", err)
	}
	if r.rep == nil {
		t.Fatal("recovery never ran")
	}
	if r.postErr != nil {
		t.Fatalf("post-recovery live state inconsistent: %v", r.postErr)
	}
	met := r.cluster.Metrics()
	if met.Crashes != 1 || met.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", met.Crashes, met.Restarts)
	}
	if met.PeerRollbacks != 4 || r.rep.PeersRolled != 4 {
		t.Fatalf("peer rollbacks = %d (report %d), want 4: coordinated recovery rolls everyone back",
			met.PeerRollbacks, r.rep.PeersRolled)
	}
	if met.RecoveryTime < restartAfter {
		t.Fatalf("recovery time %v below the down window %v", met.RecoveryTime, restartAfter)
	}
	if err := consistency.Check(r.cluster.PermanentLine()); err != nil {
		t.Fatalf("final recovery line inconsistent: %v", err)
	}
	// The resumed execution must commit new lines.
	newLines := 0
	for _, rec := range met.Completed() {
		if rec.Committed && rec.Start > crashAt+restartAfter {
			newLines++
		}
	}
	if newLines == 0 {
		t.Fatal("no new line committed after recovery")
	}
}

// TestLogRecoveryRollsBackOnlyVictim: log-based recovery restores the
// failed process from its own checkpoint plus its peers' logs; nobody
// else rolls back, and dedup enforces exactly-once redelivery.
func TestLogRecoveryRollsBackOnlyVictim(t *testing.T) {
	r := runRecovery(t, logbasedEngine, recovery.ModeLog, true, 42)
	for _, err := range r.cluster.Errors() {
		t.Errorf("cluster error: %v", err)
	}
	if r.rep == nil {
		t.Fatal("recovery never ran")
	}
	if r.postErr != nil {
		t.Fatalf("post-recovery live state inconsistent: %v", r.postErr)
	}
	met := r.cluster.Metrics()
	if met.PeerRollbacks != 0 || r.rep.PeersRolled != 0 {
		t.Fatalf("peer rollbacks = %d (report %d), want 0: log-based recovery touches only the victim",
			met.PeerRollbacks, r.rep.PeersRolled)
	}
	if met.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", met.Restarts)
	}
	if met.DedupedReplays == 0 {
		t.Fatal("dedup never fired: the victim's checkpoint covered no received messages (scenario too weak)")
	}
	if met.ReplayedMessages == 0 {
		t.Fatal("nothing was replayed from the logs")
	}
	// Post-recovery the computation continues and keeps checkpointing.
	newCkpts := 0
	for _, rec := range met.Completed() {
		if rec.Committed && rec.Start > crashAt+restartAfter {
			newCkpts++
		}
	}
	if newCkpts == 0 {
		t.Fatal("no checkpoint committed after recovery")
	}
}

// TestSkipDedupMutationCausesDuplicateDelivery: log replay skips what the
// restored checkpoint already recorded, so the live states are consistent
// right after recovery. Under the skip-dedup mutant (replay without
// dedup) that prefix arrives twice: some channel's receive count exceeds
// its send count, and nothing is reported deduped.
func TestSkipDedupMutationCausesDuplicateDelivery(t *testing.T) {
	r := runRecovery(t, logbasedEngine, recovery.ModeLog, true, 42)
	if r.rep == nil {
		t.Fatal("recovery never ran")
	}
	if os.Getenv("MUTABLECP_MUTANT") == "" {
		if r.postErr != nil || r.rep.Deduped == 0 {
			t.Fatalf("correct executor: post-recovery %v, %d deduped replays", r.postErr, r.rep.Deduped)
		}
		return
	}
	if r.postErr == nil {
		t.Fatal("skip-dedup mutant went undetected: post-recovery states still consistent")
	}
	if r.rep.Deduped != 0 {
		t.Fatalf("mutated executor reported %d deduped replays", r.rep.Deduped)
	}
}

// TestRecoveryDeterministic: the post-recovery fingerprint is
// byte-identical across reruns of the same seed, for both modes.
func TestRecoveryDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		algo    func(env protocol.Env) protocol.Engine
		mode    recovery.Mode
		logging bool
	}{
		{"rollback", mutableEngine, recovery.ModeRollback, false},
		{"log", logbasedEngine, recovery.ModeLog, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := runRecovery(t, tc.algo, tc.mode, tc.logging, 7)
			b := runRecovery(t, tc.algo, tc.mode, tc.logging, 7)
			if a.fp != b.fp {
				t.Fatalf("same seed diverged:\n%s\n%s", a.fp, b.fp)
			}
			c := runRecovery(t, tc.algo, tc.mode, tc.logging, 8)
			if c.fp == a.fp {
				t.Fatal("different seeds produced identical executions")
			}
		})
	}
}

// TestExecutorValidation pins the constructor's pairing rules and the
// down-state precondition.
func TestExecutorValidation(t *testing.T) {
	cluster, err := simrt.New(simrt.Config{
		N:         4,
		NewEngine: mutableEngine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovery.NewExecutor(cluster, recovery.ModeLog); err == nil {
		t.Fatal("ModeLog accepted without MessageLogging")
	}
	if _, err := recovery.NewExecutor(cluster, 0); err == nil {
		t.Fatal("zero mode accepted")
	}
	exec, err := recovery.NewExecutor(cluster, recovery.ModeRollback)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Recover(1); err == nil {
		t.Fatal("Recover accepted a live process")
	}
	if _, err := exec.Recover(99); err == nil {
		t.Fatal("Recover accepted an unknown process")
	}
}
