package harness_test

import (
	"strings"
	"testing"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/harness"
)

// errString renders an error for equality comparison (nil-safe).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requireIdenticalResults asserts the full Result payload matches
// bit-for-bit: every merged Sample (mean, CI, extrema, counts), every
// counter, and the consistency verdict.
func requireIdenticalResults(t *testing.T, seq, par *harness.Result) {
	t.Helper()
	if seq.Initiations != par.Initiations {
		t.Fatalf("initiations: sequential %d, parallel %d", seq.Initiations, par.Initiations)
	}
	if seq.Tentative != par.Tentative || seq.Mutable != par.Mutable ||
		seq.Redundant != par.Redundant || seq.SysMsgs != par.SysMsgs ||
		seq.DurationSec != par.DurationSec || seq.BlockedSec != par.BlockedSec {
		t.Fatalf("merged samples diverge:\nsequential: tent=%s mut=%s red=%s sys=%s dur=%s blk=%s\nparallel:   tent=%s mut=%s red=%s sys=%s dur=%s blk=%s",
			seq.Tentative.String(), seq.Mutable.String(), seq.Redundant.String(),
			seq.SysMsgs.String(), seq.DurationSec.String(), seq.BlockedSec.String(),
			par.Tentative.String(), par.Mutable.String(), par.Redundant.String(),
			par.SysMsgs.String(), par.DurationSec.String(), par.BlockedSec.String())
	}
	if seq.RedundantRatio != par.RedundantRatio {
		t.Fatalf("redundant ratio: %v vs %v", seq.RedundantRatio, par.RedundantRatio)
	}
	if seq.CompMsgs != par.CompMsgs || seq.TotalSysMsgs != par.TotalSysMsgs ||
		seq.SimulatedEvents != par.SimulatedEvents ||
		seq.TotalStable != par.TotalStable || seq.TotalMutableCk != par.TotalMutableCk ||
		seq.Intervals != par.Intervals || seq.DozeWakeups != par.DozeWakeups {
		t.Fatalf("counters diverge: sequential %+v, parallel %+v", seq, par)
	}
	if seq.ConsistencyOK != par.ConsistencyOK {
		t.Fatalf("consistency verdict: sequential %v, parallel %v", seq.ConsistencyOK, par.ConsistencyOK)
	}
	if errString(seq.ConsistencyErr) != errString(par.ConsistencyErr) {
		t.Fatalf("consistency error: %q vs %q", errString(seq.ConsistencyErr), errString(par.ConsistencyErr))
	}
	if len(seq.ClusterErrors) != len(par.ClusterErrors) {
		t.Fatalf("cluster errors: %d vs %d", len(seq.ClusterErrors), len(par.ClusterErrors))
	}
	for i := range seq.ClusterErrors {
		if seq.ClusterErrors[i].Error() != par.ClusterErrors[i].Error() {
			t.Fatalf("cluster error %d: %q vs %q", i, seq.ClusterErrors[i], par.ClusterErrors[i])
		}
	}
}

// TestParallelRunSeedsDeterministic is the determinism regression test for
// the parallel run-plan layer: for every registered algorithm, an 8-worker
// RunSeeds must be indistinguishable from the sequential run on the same
// seeds — identical sample means and CIs, counters, and consistency
// verdicts regardless of completion order.
func TestParallelRunSeedsDeterministic(t *testing.T) {
	seeds := []uint64{3, 5, 11}
	for _, algo := range algorithms.Names() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := harness.Config{
				Algorithm:       algo,
				Rate:            0.05,
				Horizon:         harness.ShortHorizon,
				SkipConsistency: algo == harness.AlgoNaiveNoCSN,
			}
			seq, err := harness.Sequential().RunSeeds(cfg, seeds)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := harness.Parallel(8).RunSeeds(cfg, seeds)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			requireIdenticalResults(t, seq, par)
		})
	}
}

// TestParallelFig5ByteIdentical asserts the stronger end-to-end guarantee:
// the rendered Fig. 5 series (table and CSV) from a parallel regeneration
// is byte-identical to the sequential one.
func TestParallelFig5ByteIdentical(t *testing.T) {
	seeds := []uint64{1, 2}
	rates := []float64{0.01, 0.05}
	seq, err := harness.Sequential().Fig5(seeds, rates)
	if err != nil {
		t.Fatal(err)
	}
	par, err := harness.Parallel(8).Fig5(seeds, rates)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Format() != par.Format() {
		t.Fatalf("Fig5 output diverges:\n--- sequential ---\n%s--- parallel ---\n%s", seq.Format(), par.Format())
	}
	if seq.CSV() != par.CSV() {
		t.Fatalf("Fig5 CSV diverges:\n%s\nvs\n%s", seq.CSV(), par.CSV())
	}
}

// TestParallelSweepsDeterministic covers the remaining grid runners at a
// reduced size: scale and interval sweeps must not depend on worker count.
func TestParallelSweepsDeterministic(t *testing.T) {
	seeds := []uint64{1}
	seqScale, err := harness.Sequential().ScaleSweep([]int{4, 8}, 0.1, seeds)
	if err != nil {
		t.Fatal(err)
	}
	parScale, err := harness.Parallel(8).ScaleSweep([]int{4, 8}, 0.1, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if harness.FormatScale(0.1, seqScale) != harness.FormatScale(0.1, parScale) {
		t.Fatalf("scale sweep diverges:\n%s\nvs\n%s",
			harness.FormatScale(0.1, seqScale), harness.FormatScale(0.1, parScale))
	}
}

// TestRunSeedsErrorNamesFirstSeed pins the RunSeeds error-attribution fix:
// a failure must name the seed that produced it, and the first failing
// seed in seed order wins even under parallel completion order.
func TestRunSeedsErrorNamesFirstSeed(t *testing.T) {
	bad := harness.Config{
		Algorithm: harness.AlgoMutable,
		Rate:      0.05,
		DozeCount: 15, // leaves no active pair: Run fails for every seed
		Horizon:   harness.ShortHorizon,
	}
	seeds := []uint64{42, 7, 9}
	_, seqErr := harness.Sequential().RunSeeds(bad, seeds)
	if seqErr == nil {
		t.Fatal("sequential RunSeeds accepted a broken config")
	}
	if !strings.Contains(seqErr.Error(), "seed 42") {
		t.Fatalf("sequential error does not name the first failing seed: %v", seqErr)
	}
	_, parErr := harness.Parallel(8).RunSeeds(bad, seeds)
	if parErr == nil {
		t.Fatal("parallel RunSeeds accepted a broken config")
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error differs between modes: %q vs %q", seqErr, parErr)
	}
}

// TestRunnerWorkers pins the worker-count defaulting rules.
func TestRunnerWorkers(t *testing.T) {
	if w := harness.Parallel(4).Workers(); w != 4 {
		t.Fatalf("Parallel(4).Workers() = %d", w)
	}
	if w := harness.Parallel(0).Workers(); w < 1 {
		t.Fatalf("Parallel(0).Workers() = %d, want >= 1 (GOMAXPROCS)", w)
	}
	if w := harness.Sequential().Workers(); w != 1 {
		t.Fatalf("Sequential().Workers() = %d", w)
	}
	var nilRunner *harness.Runner
	if w := nilRunner.Workers(); w != 1 {
		t.Fatalf("nil Runner Workers() = %d", w)
	}
}
