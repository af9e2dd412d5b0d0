package harness

import (
	"os"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
)

// fastRecovery keeps the crash-and-recover runs small enough for the
// unit suite: 5 processes, 10 one-minute intervals.
// Each victim is down for 20 s.
func fastRecovery(algo string, failures int) Config {
	cfg := Config{
		Algorithm: algo,
		N:         5,
		Seed:      3,
		Rate:      1.5,
		Interval:  60 * time.Second,
		Horizon:   600 * time.Second,
	}
	cfg.Crashes = SpacedCrashes(cfg, failures, 20*time.Second)
	return cfg
}

// sysMsgsPerCommit is the coordinated families' overhead axis: system
// messages per committed initiation.
func sysMsgsPerCommit(res *Result) float64 {
	if res.Committed == 0 {
		return 0
	}
	return float64(res.TotalSysMsgs) / float64(res.Committed)
}

func TestRunRecoveryAllFamilies(t *testing.T) {
	for _, algo := range RecoveryFamilies() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			res, err := Run(fastRecovery(algo, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.ClusterErrors {
				t.Errorf("cluster error: %v", e)
			}
			if res.Crashes != 1 || res.Restarts != 1 {
				t.Fatalf("crashes=%d restarts=%d, want 1/1", res.Crashes, res.Restarts)
			}
			if !res.PostRecoveryOK {
				t.Fatalf("post-recovery inconsistent: %v", res.PostRecoveryErr)
			}
			if res.NewCommits == 0 {
				t.Fatal("no commit after recovery")
			}
			if len(res.Reports) != 1 {
				t.Fatalf("reports = %d, want 1", len(res.Reports))
			}
			// The recovery-scope split that motivates the comparison.
			if algo == AlgoLogBased {
				if res.Mode != recovery.ModeLog || res.PeerRollbacks != 0 {
					t.Fatalf("log-based: mode=%v peerRollbacks=%d, want log/0", res.Mode, res.PeerRollbacks)
				}
				if res.LoggedMsgs == 0 {
					t.Fatal("log-based run accumulated no log entries")
				}
			} else {
				if res.Mode != recovery.ModeRollback || res.PeerRollbacks != 4 {
					t.Fatalf("%s: mode=%v peerRollbacks=%d, want rollback/4", algo, res.Mode, res.PeerRollbacks)
				}
				if sysMsgsPerCommit(res) == 0 {
					t.Fatalf("%s reported zero system messages per initiation", algo)
				}
			}
		})
	}
}

func TestRunRecoveryFailureFreeBaseline(t *testing.T) {
	res, err := Run(fastRecovery(AlgoMutable, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 || res.Restarts != 0 || res.RecoveryTime != 0 {
		t.Fatalf("failure-free run recorded crashes=%d restarts=%d rt=%v",
			res.Crashes, res.Restarts, res.RecoveryTime)
	}
	if res.Committed == 0 || sysMsgsPerCommit(res) == 0 {
		t.Fatalf("baseline produced no overhead signal (inits=%d sys/init=%g)",
			res.Committed, sysMsgsPerCommit(res))
	}
}

func TestRecoveryConfigValidation(t *testing.T) {
	// P1 crashes at 200 s while P0 is down until 350 s; both restarts leave
	// a full interval before the 600 s horizon, so only the overlap rule fires.
	cfg := fastRecovery(AlgoMutable, 0)
	cfg.Crashes = []simrt.CrashPlan{
		{Proc: 0, At: 100 * time.Second, RestartAfter: 250 * time.Second},
		{Proc: 1, At: 200 * time.Second, RestartAfter: 20 * time.Second},
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "outages must not overlap") {
		t.Fatalf("overlapping outages: err = %v", err)
	}
	if _, err := Sequential().RecoverySweep([]int{-1}, []uint64{3}, fastRecovery(AlgoMutable, 0), 20*time.Second); err == nil {
		t.Fatal("negative failure count accepted")
	}
	cfg = fastRecovery("no-such-algo", 1)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// One crash-window rule for every restarting plan, spaced or pinned:
	// P0 back at 2 min leaves less than one 2 min interval before 3 min.
	cfg = Config{N: 8, Rate: 1, Interval: 2 * time.Minute, Horizon: 3 * time.Minute}
	cfg.Crashes = SpacedCrashes(cfg, 1, 30*time.Second)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint interval before the horizon") {
		t.Fatalf("spaced crash without room to commit again: err = %v", err)
	}
}

func TestRecoverySweepAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is 8 full runs")
	}
	base := fastRecovery(AlgoMutable, 0)
	rows, err := Sequential().RecoverySweep([]int{0, 1}, []uint64{3}, base, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(RecoveryFamilies())*2 {
		t.Fatalf("rows = %d, want %d", len(rows), len(RecoveryFamilies())*2)
	}
	for _, r := range rows {
		if r.Failures == 0 {
			continue
		}
		if r.Algorithm == AlgoLogBased {
			if r.PeerRollbacks != 0 {
				t.Fatalf("log-based peer rollbacks = %g, want 0", r.PeerRollbacks)
			}
		} else if r.PeerRollbacks != 4 {
			t.Fatalf("%s peer rollbacks = %g, want 4", r.Algorithm, r.PeerRollbacks)
		}
		if r.RecoverySec < 20 {
			t.Fatalf("%s recovery %gs below the 20s down window", r.Algorithm, r.RecoverySec)
		}
	}
	out := FormatRecovery(base, 20*time.Second, rows)
	for _, want := range []string{"Executed recovery comparison", "peer-rollbacks", AlgoLogBased, AlgoKooToueg} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestRunRecoveryMutationDetected: the post-recovery consistency check
// passes a log-based recovery and fails it under the skip-dedup mutant,
// whose replay delivers the restored checkpoint's prefix twice.
func TestRunRecoveryMutationDetected(t *testing.T) {
	res, err := Run(fastRecovery(AlgoLogBased, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := os.Getenv("MUTABLECP_MUTANT") == ""; res.PostRecoveryOK != want {
		t.Fatalf("post-recovery check passed: %v, want %v (%v)", res.PostRecoveryOK, want, res.PostRecoveryErr)
	}
}

// TestRecoveryDurableStores recovers the log-based family against the
// durable on-disk stores: the victim restores what its log holds, and the
// final store restart finds the disk equal to the post-recovery state.
func TestRecoveryDurableStores(t *testing.T) {
	cfg := fastRecovery(AlgoLogBased, 1)
	cfg.StoreDir = t.TempDir()
	res := runOK(t, cfg)
	if !res.DiskLineOK || res.Restarts != 1 || res.Replayed == 0 {
		t.Fatalf("disk %v, restarts %d, replayed %d", res.DiskLineErr, res.Restarts, res.Replayed)
	}
}

// benchRecovery runs one crash-and-recover simulation per op: a
// 256-process cluster, one victim crashed mid-run, recovered live by
// internal/recovery's executor, and the resumed run re-verified.
func benchRecovery(b *testing.B, algo string) {
	cfg := Config{
		Algorithm: algo,
		N:         256,
		Seed:      1,
		Rate:      0.1,
		Interval:  120 * time.Second,
		// The coordinated restore re-transfers every process's 512 KB
		// checkpoint over the shared 2 Mb/s medium (~9 simulated minutes
		// at N=256); the horizon leaves room to commit again after that.
		Horizon: 2400 * time.Second,
		Crashes: []simrt.CrashPlan{{Proc: 0, At: 600 * time.Second, RestartAfter: 30 * time.Second}},
	}
	var replayed, rolled uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ClusterErrors) > 0 {
			b.Fatal(res.ClusterErrors[0])
		}
		if !res.PostRecoveryOK {
			b.Fatal(res.PostRecoveryErr)
		}
		if res.Restarts != 1 || res.NewCommits == 0 {
			b.Fatalf("recovery incomplete: restarts=%d newCommits=%d", res.Restarts, res.NewCommits)
		}
		replayed += res.Replayed
		rolled += res.PeerRollbacks
	}
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
	b.ReportMetric(float64(rolled)/float64(b.N), "peer-rollbacks/op")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recoveries/sec")
}

// BenchmarkRecoveryRollback256 restores the whole cluster to its newest
// committed line (the coordinated families' recovery).
func BenchmarkRecoveryRollback256(b *testing.B) { benchRecovery(b, AlgoMutable) }

// BenchmarkRecoveryReplay256 restores only the victim and replays its
// peers' sender logs (log-based recovery).
func BenchmarkRecoveryReplay256(b *testing.B) { benchRecovery(b, AlgoLogBased) }
