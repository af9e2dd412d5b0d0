package harness

import (
	"strings"
	"testing"
	"time"

	"mutablecp/internal/recovery"
)

// fastRecovery keeps the crash-and-recover runs small enough for the
// unit suite: 5 processes, 10 one-minute intervals.
func fastRecovery(algo string, failures int) RecoveryConfig {
	return RecoveryConfig{
		Algorithm:    algo,
		N:            5,
		Seed:         3,
		Rate:         1.5,
		Interval:     60 * time.Second,
		Horizon:      600 * time.Second,
		Failures:     failures,
		RestartAfter: 20 * time.Second,
	}
}

func TestRunRecoveryAllFamilies(t *testing.T) {
	for _, algo := range RecoveryFamilies() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			res, err := RunRecovery(fastRecovery(algo, 1))
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
				if res.SysMsgsPerInit == 0 {
					t.Fatalf("%s reported zero system messages per initiation", algo)
				}
			}
		})
	}
}

func TestRunRecoveryFailureFreeBaseline(t *testing.T) {
	res, err := RunRecovery(fastRecovery(AlgoMutable, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 || res.Restarts != 0 || res.RecoveryTime != 0 {
		t.Fatalf("failure-free run recorded crashes=%d restarts=%d rt=%v",
			res.Crashes, res.Restarts, res.RecoveryTime)
	}
	if res.Initiations == 0 || res.SysMsgsPerInit == 0 {
		t.Fatalf("baseline produced no overhead signal (inits=%d sys/init=%g)",
			res.Initiations, res.SysMsgsPerInit)
	}
}

func TestRecoveryConfigValidation(t *testing.T) {
	cfg := fastRecovery(AlgoMutable, 2)
	cfg.RestartAfter = 250 * time.Second // spacing 200s < down window
	if _, err := RunRecovery(cfg); err == nil {
		t.Fatal("overlapping outages accepted")
	}
	cfg = fastRecovery(AlgoMutable, -1)
	if _, err := RunRecovery(cfg); err == nil {
		t.Fatal("negative failure count accepted")
	}
	cfg = fastRecovery("no-such-algo", 1)
	if _, err := RunRecovery(cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRecoverySweepAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is 8 full runs")
	}
	base := fastRecovery(AlgoMutable, 0)
	rows, err := RecoverySweep([]int{0, 1}, []uint64{3}, base)
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
	out := FormatRecovery(base, rows)
	for _, want := range []string{"Executed recovery comparison", "peer-rollbacks", AlgoLogBased, AlgoKooToueg} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestRunRecoveryMutationDetected(t *testing.T) {
	cfg := fastRecovery(AlgoLogBased, 1)
	cfg.Mutation = recovery.MutSkipDedup
	res, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PostRecoveryOK {
		t.Fatal("skip-dedup mutation survived the post-recovery consistency check")
	}
}

// benchRecovery runs one crash-and-recover simulation per op: a
// 256-process cluster, one victim crashed mid-run, recovered live by
// internal/recovery's executor, and the resumed run re-verified.
func benchRecovery(b *testing.B, algo string) {
	cfg := RecoveryConfig{
		Algorithm: algo,
		N:         256,
		Seed:      1,
		Rate:      0.1,
		Interval:  120 * time.Second,
		// The coordinated restore re-transfers every process's 512 KB
		// checkpoint over the shared 2 Mb/s medium (~9 simulated minutes
		// at N=256); the horizon leaves room to commit again after that.
		Horizon:      2400 * time.Second,
		Failures:     1,
		CrashAt:      600 * time.Second,
		RestartAfter: 30 * time.Second,
	}
	var replayed, rolled uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunRecovery(cfg)
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
