package harness_test

import (
	"testing"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/harness"
)

func TestQuickAll(t *testing.T) {
	for _, algo := range algorithms.Names() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			res, err := harness.Run(harness.Config{
				Algorithm:       algo,
				Rate:            0.05,
				Horizon:         harness.ShortHorizon,
				Seed:            7,
				SkipConsistency: algo == harness.AlgoNaiveNoCSN,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, e := range res.ClusterErrors {
				t.Errorf("cluster err: %v", e)
			}
			if !res.ConsistencyOK {
				t.Errorf("inconsistent: %v", res.ConsistencyErr)
			}
			t.Logf("inits=%d tent=%.2f mut=%.2f red=%.2f sys=%.1f dur=%.2fs blocked=%.2fs",
				res.Initiations, res.Tentative.Mean(), res.Mutable.Mean(), res.Redundant.Mean(),
				res.SysMsgs.Mean(), res.DurationSec.Mean(), res.BlockedSec.Mean())
		})
	}
}
