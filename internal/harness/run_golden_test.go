package harness

import (
	"fmt"
	"testing"
)

const runGoldenPath = "testdata/run_fingerprints.json"

// TestRunFingerprintGolden locks the fault and crash sections of a run
// seed-for-seed: every gauntlet operating point digests to its recorded
// chaos fingerprint, and every recovery family, failure-free and with one
// recovered crash, reproduces its recorded recovery counters.
func TestRunFingerprintGolden(t *testing.T) {
	got := make(map[string]string)
	for _, pt := range DefaultChaosPoints() {
		for seed := uint64(1); seed <= 2; seed++ {
			cfg := pt.Config
			cfg.Seed = seed
			got[fmt.Sprintf("chaos/%s/seed%d", pt.Label, seed)] = fingerprint(runOK(t, cfg))
		}
	}
	for _, algo := range RecoveryFamilies() {
		for _, failures := range []int{0, 1} {
			res := runOK(t, fastRecovery(algo, failures))
			got[fmt.Sprintf("recovery/%s/failures%d", algo, failures)] = fmt.Sprintf(
				"restarts=%d peers=%d replayed=%d deduped=%d logged=%d new=%d rt=%v inits=%d sys/init=%.4f",
				res.Restarts, res.PeerRollbacks, res.Replayed, res.Deduped, res.LoggedMsgs,
				res.NewCommits, res.RecoveryTime, res.Committed, sysMsgsPerCommit(res))
		}
	}
	checkGolden(t, runGoldenPath, got, "a fault or crash section changed the run")
}
