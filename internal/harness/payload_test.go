package harness

import (
	"path/filepath"
	"testing"
	"time"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/workload"
)

func payloadConfig(mode chunkstore.Mode) Config {
	return Config{
		Algorithm:      AlgoMutable,
		N:              8,
		Seed:           7,
		Rate:           0.1,
		Interval:       300 * time.Second,
		Horizon:        90 * time.Minute,
		PayloadBytes:   64 << 10,
		PayloadProfile: workload.ProfileSkewed,
		PayloadMode:    mode,
	}
}

// TestPayloadExperiment is experiment E23's engine: the same protocol
// run with full, incremental, and delta payload storage must (a) pass
// the end-of-run payload audit, and (b) order the transfer ratios the
// way content addressing promises — incremental strictly beats full on
// a skewed-dirty-page workload, and delta is no worse than incremental.
func TestPayloadExperiment(t *testing.T) {
	ratios := make(map[chunkstore.Mode]float64)
	for _, mode := range []chunkstore.Mode{
		chunkstore.ModeFull, chunkstore.ModeIncremental, chunkstore.ModeDelta,
	} {
		res, err := Run(payloadConfig(mode))
		if err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		for _, e := range res.ClusterErrors {
			t.Errorf("mode=%v cluster error: %v", mode, e)
		}
		if !res.PayloadVerifyOK {
			t.Fatalf("mode=%v payload audit failed: %v", mode, res.PayloadVerifyErr)
		}
		if res.PayloadSaves == 0 || res.PayloadSaves != res.TotalStable {
			t.Errorf("mode=%v: %d payload saves for %d stable checkpoints",
				mode, res.PayloadSaves, res.TotalStable)
		}
		if res.PayloadRatio <= 0 {
			t.Fatalf("mode=%v: no payload bytes accounted", mode)
		}
		ratios[mode] = res.PayloadRatio
		t.Logf("mode=%v saves=%d logical=%dKiB new=%dKiB ratio=%.3f",
			mode, res.PayloadSaves, res.PayloadLogicalBytes>>10,
			res.PayloadNewBytes>>10, res.PayloadRatio)
	}
	if ratios[chunkstore.ModeIncremental] >= ratios[chunkstore.ModeFull] {
		t.Errorf("incremental (%.3f) did not beat full (%.3f) on a skewed workload",
			ratios[chunkstore.ModeIncremental], ratios[chunkstore.ModeFull])
	}
	if ratios[chunkstore.ModeIncremental] > 0.5 {
		t.Errorf("incremental ratio %.3f: dedup should keep well under half the full transfer",
			ratios[chunkstore.ModeIncremental])
	}
	if ratios[chunkstore.ModeDelta] > ratios[chunkstore.ModeIncremental] {
		t.Errorf("delta (%.3f) must not exceed incremental (%.3f)",
			ratios[chunkstore.ModeDelta], ratios[chunkstore.ModeIncremental])
	}
}

// TestPayloadOnDiskSeeds runs the payload plane on a real directory for
// two seeds: each seed keeps its own chunk log under payload-seed-<n>/,
// the audit passes, and the merged dedup counters are the sum of the
// single-seed runs.
func TestPayloadOnDiskSeeds(t *testing.T) {
	cfg := payloadConfig(chunkstore.ModeIncremental)
	cfg.Horizon = 45 * time.Minute
	dir := t.TempDir()
	cfg.PayloadDir = dir
	res, err := Sequential().RunSeeds(cfg, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.ClusterErrors {
		t.Errorf("cluster error: %v", e)
	}
	if !res.PayloadVerifyOK {
		t.Fatalf("on-disk payload audit failed: %v", res.PayloadVerifyErr)
	}
	if res.PayloadSaves == 0 {
		t.Fatal("on-disk run saved no payloads")
	}
	for _, seed := range []string{"payload-seed-1", "payload-seed-2"} {
		segs, err := filepath.Glob(filepath.Join(chunkstore.Dir(filepath.Join(dir, seed)), "*"))
		if err != nil || len(segs) == 0 {
			t.Errorf("%s holds no chunk log (err %v)", seed, err)
		}
	}

	var want uint64
	for _, seed := range []uint64{1, 2} {
		one := cfg
		one.Seed = seed
		one.PayloadDir = ""
		r, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		want += r.PayloadStats.DedupChunks
	}
	if res.PayloadStats.DedupChunks != want {
		t.Errorf("merged dedup chunks %d, want the single-seed sum %d",
			res.PayloadStats.DedupChunks, want)
	}
}

// TestPayloadUnderChaos runs the payload plane under the gauntlet's drop5
// fault mix and mid-run crash: the run audit passes and every retained
// manifest still resolves.
func TestPayloadUnderChaos(t *testing.T) {
	cfg := DefaultChaosPoints()[2].Config
	if cfg.Faults.Drop != 0.05 || len(cfg.Crashes) != 1 {
		t.Fatalf("point 2 is not the drop5 shape: %+v", cfg)
	}
	cfg.Seed = 1
	cfg.PayloadBytes, cfg.PayloadProfile = 64<<10, workload.ProfileSkewed
	res := runOK(t, cfg)
	if !res.PayloadVerifyOK || res.PayloadSaves == 0 {
		t.Fatalf("payload audit %v over %d saves", res.PayloadVerifyErr, res.PayloadSaves)
	}
	if res.Committed == 0 || res.LinesChecked != res.Committed {
		t.Fatalf("checked %d lines for %d commits", res.LinesChecked, res.Committed)
	}
}
