package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/simrt"
)

// chaosShape is the gauntlet's experiment shape (DefaultChaosPoints) over
// the given horizon; tests add the Faults and Crashes sections.
func chaosShape(seed uint64, horizon time.Duration) Config {
	return Config{N: 8, Rate: 2, Interval: 300 * time.Second, Seed: seed, Horizon: horizon}
}

// midCrash crashes the highest pid at the middle of the horizon.
func midCrash(horizon, restartAfter time.Duration) []simrt.CrashPlan {
	return []simrt.CrashPlan{{Proc: 7, At: horizon / 2, RestartAfter: restartAfter}}
}

// fingerprint is a deterministic digest of the fault and recovery
// counters: equal seeds and configs must produce equal fingerprints.
func fingerprint(r *Result) string {
	return fmt.Sprintf(
		"committed=%d aborted=%d lines=%d timeouts=%d rel=%+v drop=%d dup=%d jit=%d part=%d crash=%d revived=%d restarts=%d peers=%d replayed=%d rt=%v recovered=%v events=%d",
		r.Committed, r.Aborted, r.LinesChecked, r.TimeoutAborts, r.Rel,
		r.Dropped, r.Duplicated, r.Jittered, r.PartitionDropped, r.CrashDropped,
		r.RevivedDeliveries, r.Restarts, r.PeerRollbacks, r.Replayed, r.RecoveryTime,
		restarts(r.Config.Crashes) && r.PostRecoveryOK, r.SimulatedEvents)
}

// runOK runs cfg and fails the test on an error or a failed verdict.
func runOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// gauntletSeeds returns the seed set, reduced under -short.
func gauntletSeeds(t *testing.T) []uint64 {
	if testing.Short() {
		return []uint64{1, 2}
	}
	return []uint64{1, 2, 3, 4, 5}
}

// shortPoints trims the grid under -short: the control point, the two
// fault extremes, and the crash-and-recover point still cover every fault
// kind and both crash fates (permanent and recovered).
func shortPoints(t *testing.T) []ChaosPoint {
	pts := DefaultChaosPoints()
	if testing.Short() {
		return []ChaosPoint{pts[0], pts[2], pts[4], pts[5]}
	}
	return pts
}

// TestChaosGauntlet is the PR's acceptance gate: the full operating grid,
// every committed line orphan-checked, every abort verified clean. A
// failure names the first failing point and seed.
func TestChaosGauntlet(t *testing.T) {
	points := shortPoints(t)
	seeds := gauntletSeeds(t)
	rows, err := Parallel(0).ChaosGauntlet(points, seeds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatChaos(rows))
	for _, row := range rows {
		if row.Committed == 0 {
			t.Errorf("%s: no instance committed — the point is vacuous", row.Label)
		}
		if row.LinesChecked != row.Committed {
			t.Errorf("%s: checked %d lines for %d commits", row.Label, row.LinesChecked, row.Committed)
		}
	}
	clean := rows[0]
	if clean.Label != "clean" {
		t.Fatalf("first point is %q, want the clean control", clean.Label)
	}
	if clean.Dropped != 0 || clean.GaveUp != 0 || clean.TimeoutAborts != 0 || clean.Aborted != 0 {
		t.Errorf("clean control point saw faults: %+v", clean)
	}
	for _, row := range rows[1:] {
		if row.Dropped == 0 && row.Duplicated == 0 {
			t.Errorf("%s: fault injection never engaged", row.Label)
		}
		if row.PartitionDropped == 0 {
			t.Errorf("%s: partition window cut no traffic", row.Label)
		}
	}
	// The heavy points crash a host mid-run: the crashed host's pending
	// traffic must have been cut and at least one §3.6 timeout must have
	// resolved an instance that depended on it.
	var crashTimeouts uint64
	for i, row := range rows {
		if len(points[i].Config.Crashes) > 0 {
			crashTimeouts += row.TimeoutAborts
			if row.CrashDropped == 0 {
				t.Errorf("%s: crash cut no traffic", row.Label)
			}
		}
	}
	if crashTimeouts == 0 {
		t.Error("no crash point ever fired a §3.6 timeout abort")
	}
	// The recover point's verdict must be unanimous, and no plain point
	// may claim one.
	for i, row := range rows {
		want := 0
		if restarts(points[i].Config.Crashes) {
			want = row.Seeds
		}
		if row.Recovered != want {
			t.Errorf("%s: recovered %d seeds, want %d", row.Label, row.Recovered, want)
		}
	}
}

// TestChaosDeterminism: identical seed and fault config must reproduce
// byte-identical metrics; a different seed must not.
func TestChaosDeterminism(t *testing.T) {
	cfg := chaosShape(7, 6*300*time.Second)
	cfg.Faults = &Faults{Drop: 0.15, Dup: 0.05, JitterMax: 5 * time.Millisecond, PartitionWindow: 10 * time.Second}
	cfg.Crashes = midCrash(cfg.Horizon, 0)
	a := runOK(t, cfg)
	b := runOK(t, cfg)
	if fingerprint(a) != fingerprint(b) {
		t.Fatalf("same seed diverged:\n%s\n%s", fingerprint(a), fingerprint(b))
	}
	cfg.Seed = 8
	c := runOK(t, cfg)
	if fingerprint(c) == fingerprint(a) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestChaosDurableMSSRestart runs the gauntlet's heavy fault mix with the
// durable store backend and a storage crash+restart at Horizon/2: every
// store closes and recovers from disk while instances are in flight. The
// protocol must not notice, the usual line/leak verification must pass,
// and the post-run disk-fidelity audit must find the on-disk image equal
// to the verified in-memory state.
func TestChaosDurableMSSRestart(t *testing.T) {
	mix := Faults{Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond, PartitionWindow: 10 * time.Second}
	cfg := chaosShape(11, 6*300*time.Second)
	cfg.Crashes = midCrash(cfg.Horizon, 0)
	durable := mix
	durable.MSSRestart = true
	cfg.Faults, cfg.StoreDir = &durable, t.TempDir()
	res := runOK(t, cfg)
	if res.Committed == 0 {
		t.Fatal("nothing committed across the MSS restart")
	}
	if res.LinesChecked != res.Committed {
		t.Fatalf("checked %d lines for %d commits", res.LinesChecked, res.Committed)
	}

	// Same seed, same faults, in-memory stores, no restart: the storage
	// backend must be invisible to the protocol — identical fingerprint up
	// to the DES event count (the restart callback is itself one event).
	cfg.Faults, cfg.StoreDir = &mix, ""
	mem := runOK(t, cfg)
	trim := func(fp string) string { return fp[:strings.LastIndex(fp, " events=")] }
	if trim(fingerprint(res)) != trim(fingerprint(mem)) {
		t.Fatalf("durable backend changed the run:\n%s\n%s", fingerprint(res), fingerprint(mem))
	}
}

// TestChaosMSSRestartRequiresDurableStore: the misconfiguration (restart
// with in-memory stores) must be rejected up front, not fail obscurely.
func TestChaosMSSRestartRequiresDurableStore(t *testing.T) {
	cfg := chaosShape(1, 0)
	cfg.Faults = &Faults{MSSRestart: true}
	if _, err := Run(cfg); err == nil {
		t.Fatal("MSSRestart without StoreDir accepted")
	}
}

// TestChaosRecoverDurable runs the crash-and-recover point with durable
// stores: the rollback executes against disk-backed checkpoint state (the
// restore reads what the log recovers, the rollback's tentative drops are
// real deletions), and the final disk-fidelity audit proves the on-disk
// image still equals the verified post-recovery state.
func TestChaosRecoverDurable(t *testing.T) {
	cfg := chaosShape(7, 6*300*time.Second)
	cfg.Faults = &Faults{Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond, PartitionWindow: 10 * time.Second}
	cfg.Crashes = midCrash(cfg.Horizon, 20*time.Second)
	cfg.StoreDir = t.TempDir()
	res := runOK(t, cfg)
	if !res.PostRecoveryOK {
		t.Fatal("crash-and-recover run did not earn the post-recovery verdict")
	}
	if res.Restarts != 1 || res.PeerRollbacks != uint64(res.Config.N-1) {
		t.Fatalf("restarts=%d peerRollbacks=%d, want 1/%d",
			res.Restarts, res.PeerRollbacks, res.Config.N-1)
	}
	if res.RecoveryTime < 20*time.Second {
		t.Fatalf("recovery time %v below the 20s down window", res.RecoveryTime)
	}
	if res.Rel.ChannelResets == 0 {
		t.Fatal("recovery re-established no ARQ channels")
	}
}

// TestChaosRecoverDeterminism: the recover point must stay bit-reproducible
// — the crash, the rollback, the replay, and the resumed run all land on
// identical fingerprints for identical seeds.
func TestChaosRecoverDeterminism(t *testing.T) {
	cfg := chaosShape(7, 6*300*time.Second)
	cfg.Faults = &Faults{Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond, PartitionWindow: 10 * time.Second}
	cfg.Crashes = midCrash(cfg.Horizon, 20*time.Second)
	a := runOK(t, cfg)
	b := runOK(t, cfg)
	if fingerprint(a) != fingerprint(b) {
		t.Fatalf("same seed diverged:\n%s\n%s", fingerprint(a), fingerprint(b))
	}
}

// TestRunSeedsSumsRunCounters: a merged multi-seed result sums the fault
// and recovery counters like the §5.1 ones, so none reads as seed 1's
// value next to the summed initiation count.
func TestRunSeedsSumsRunCounters(t *testing.T) {
	cfg := chaosShape(1, 6*300*time.Second)
	cfg.Faults = &Faults{Drop: 0.05, Dup: 0.05}
	cfg.Crashes = midCrash(cfg.Horizon, 20*time.Second)
	a := runOK(t, cfg)
	cfg.Seed = 2
	b := runOK(t, cfg)
	m, err := Sequential().RunSeeds(cfg, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][3]uint64{
		"committed":  {uint64(m.Committed), uint64(a.Committed), uint64(b.Committed)},
		"newcommits": {uint64(m.NewCommits), uint64(a.NewCommits), uint64(b.NewCommits)},
		"restarts":   {m.Restarts, a.Restarts, b.Restarts},
		"rollbacks":  {m.PeerRollbacks, a.PeerRollbacks, b.PeerRollbacks},
		"dropped":    {m.Dropped, a.Dropped, b.Dropped},
		"retrans":    {m.Rel.Retransmissions, a.Rel.Retransmissions, b.Rel.Retransmissions},
	} {
		if got[0] != got[1]+got[2] || got[1] == 0 {
			t.Errorf("%s: merged %d, seeds %d + %d", name, got[0], got[1], got[2])
		}
	}
	if len(m.Reports) != 2 || m.RecoveryTime != a.RecoveryTime+b.RecoveryTime {
		t.Errorf("merged %d reports, recovery time %v", len(m.Reports), m.RecoveryTime)
	}
}

// TestChaosRecoverValidation: crash-and-recover while another victim is
// down — a second recovered victim at the same instant, or a fail-stop
// one — is a configuration error, reported up front; so is a fail-stop
// crash without the Faults section whose timeout would resolve it.
func TestChaosRecoverValidation(t *testing.T) {
	const at = 1800 * time.Second
	for name, crashes := range map[string][]simrt.CrashPlan{
		"two recovered victims": {{Proc: 7, At: at, RestartAfter: 20 * time.Second}, {Proc: 6, At: at, RestartAfter: 20 * time.Second}},
		"recovered + fail-stop": {{Proc: 7, At: at, RestartAfter: 20 * time.Second}, {Proc: 6, At: at}},
	} {
		cfg := chaosShape(1, 0)
		cfg.Faults, cfg.Crashes = &Faults{}, crashes
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	cfg := chaosShape(1, 0)
	cfg.Crashes = midCrash(3600*time.Second, 0)
	if _, err := Run(cfg); err == nil {
		t.Error("fail-stop crash without Faults accepted")
	}
	// The run audit assumes coordinated lines: independent (log-based)
	// checkpoints would fail it by design.
	cfg = chaosShape(1, 0)
	cfg.Algorithm, cfg.Faults = AlgoLogBased, &Faults{}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "mutable engine only") {
		t.Errorf("Faults under %s: err = %v", AlgoLogBased, err)
	}
}

// TestRunInfrastructureErrors: failures after the config validates (an
// unusable store directory, a crash plan the cluster rejects) come back as
// errors, with or without a payload plane open, never as a panic.
func TestRunInfrastructureErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, payload := range []int{0, 64 << 10} {
		cfg := chaosShape(1, 1800*time.Second)
		cfg.PayloadBytes, cfg.StoreDir = payload, file
		if _, err := Run(cfg); err == nil {
			t.Errorf("payload %d: StoreDir on a regular file accepted", payload)
		}
		cfg = chaosShape(1, 1800*time.Second)
		cfg.PayloadBytes = payload
		cfg.Faults, cfg.Crashes = &Faults{}, []simrt.CrashPlan{{Proc: 99, At: 900 * time.Second}}
		if _, err := Run(cfg); err == nil {
			t.Errorf("payload %d: crash plan for P99 of 8 accepted", payload)
		}
	}
}

// TestChaosPartialCommitPoint: with PartialCommit, a crash mid-run still
// lets uncontaminated subtrees commit, and the partial lines stay
// consistent (they are checked like any other committed line).
func TestChaosPartialCommitPoint(t *testing.T) {
	cfg := chaosShape(3, 12*300*time.Second)
	cfg.Faults = &Faults{Drop: 0.10, Dup: 0.05, JitterMax: 5 * time.Millisecond,
		PartitionWindow: 10 * time.Second, PartialCommit: true}
	cfg.Crashes = midCrash(cfg.Horizon, 0)
	res := runOK(t, cfg)
	if res.Committed == 0 {
		t.Fatal("nothing committed under partial-commit chaos")
	}
	if res.LinesChecked != res.Committed {
		t.Fatalf("checked %d lines for %d commits", res.LinesChecked, res.Committed)
	}
}
