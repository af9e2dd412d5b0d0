package harness_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/harness"
)

// short returns a config sized for unit tests.
func short(algo string, rate float64) harness.Config {
	return harness.Config{
		Algorithm: algo,
		Rate:      rate,
		Horizon:   harness.ShortHorizon,
		Seed:      3,
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	if _, err := algorithms.New("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := harness.Run(harness.Config{Algorithm: "nope", Rate: 0.1}); err == nil {
		t.Fatal("Run accepted unknown algorithm")
	}
}

func TestAlgorithmsRegistryComplete(t *testing.T) {
	names := algorithms.Names()
	if len(names) != 9 {
		t.Fatalf("registry has %d algorithms", len(names))
	}
	for _, name := range names {
		factory, err := algorithms.New(name)
		if err != nil || factory == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunProducesSamples(t *testing.T) {
	res, err := harness.Run(short(harness.AlgoMutable, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.Initiations < 5 {
		t.Fatalf("initiations = %d", res.Initiations)
	}
	if res.Tentative.N() != res.Initiations {
		t.Fatal("sample count mismatch")
	}
	if !res.ConsistencyOK {
		t.Fatalf("inconsistent: %v", res.ConsistencyErr)
	}
	if len(res.ClusterErrors) != 0 {
		t.Fatalf("cluster errors: %v", res.ClusterErrors)
	}
	if res.CompMsgs == 0 || res.TotalSysMsgs == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestRunSeedsMerges(t *testing.T) {
	single, err := harness.Run(short(harness.AlgoMutable, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := harness.Sequential().RunSeeds(short(harness.AlgoMutable, 0.05), []uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Initiations <= single.Initiations {
		t.Fatalf("merged %d vs single %d", merged.Initiations, single.Initiations)
	}
	if _, err := harness.Sequential().RunSeeds(short(harness.AlgoMutable, 0.05), nil); err == nil {
		t.Fatal("no-seeds accepted")
	}
}

// TestFig5ShapeRises asserts the published shape: tentative checkpoints
// per initiation increase monotonically (within noise) with the sending
// rate, approaching N=16, and redundant mutable checkpoints stay far below
// tentative ones (paper: < 4%).
func TestFig5ShapeRises(t *testing.T) {
	series, err := harness.Sequential().Fig5([]uint64{1, 2}, []float64{0.002, 0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rows := series.Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !(rows[0].Tentative < rows[1].Tentative && rows[1].Tentative < rows[2].Tentative+0.5) {
		t.Fatalf("tentative not rising: %+v", rows)
	}
	if rows[2].Tentative < 15 {
		t.Fatalf("high-rate tentative = %.2f, want ~16", rows[2].Tentative)
	}
	for _, r := range rows {
		if !r.ConsistencyOK {
			t.Fatalf("rate %g inconsistent", r.Rate)
		}
		if r.Tentative > 0 && r.Redundant/r.Tentative > 0.04 {
			t.Fatalf("rate %g: redundant %.2f%% exceeds the paper's 4%% bound",
				r.Rate, 100*r.Redundant/r.Tentative)
		}
	}
	if !strings.Contains(series.Format(), "tentative") {
		t.Fatal("Format output broken")
	}
}

// TestFig6FewerCheckpointsThanP2P asserts the group-communication shape:
// fewer tentative checkpoints than point-to-point at the same rate, and
// ratio 10000 at most ratio 1000.
func TestFig6FewerCheckpointsThanP2P(t *testing.T) {
	rate := []float64{0.02}
	seeds := []uint64{1, 2}
	p2p, err := harness.Sequential().Fig5(seeds, rate)
	if err != nil {
		t.Fatal(err)
	}
	g1000, err := harness.Sequential().Fig6(1000, seeds, rate)
	if err != nil {
		t.Fatal(err)
	}
	g10000, err := harness.Sequential().Fig6(10000, seeds, rate)
	if err != nil {
		t.Fatal(err)
	}
	if g1000.Rows[0].Tentative >= p2p.Rows[0].Tentative {
		t.Fatalf("group(1000)=%.2f not below p2p=%.2f",
			g1000.Rows[0].Tentative, p2p.Rows[0].Tentative)
	}
	if g10000.Rows[0].Tentative > g1000.Rows[0].Tentative+0.5 {
		t.Fatalf("group(10000)=%.2f above group(1000)=%.2f",
			g10000.Rows[0].Tentative, g1000.Rows[0].Tentative)
	}
}

// TestTable1Shape asserts the qualitative Table 1 claims: Koo–Toueg
// blocks, the others do not; Elnozahy checkpoints all N; the mutable
// algorithm takes no more checkpoints than Elnozahy and roughly matches
// Koo–Toueg (both ~Nmin).
func TestTable1Shape(t *testing.T) {
	rows, err := harness.Sequential().Table1(0.01, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]harness.Table1Row{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	kt := byName[harness.AlgoKooToueg]
	ez := byName[harness.AlgoElnozahy]
	mu := byName[harness.AlgoMutable]
	if kt.BlockingSec <= 0 {
		t.Fatal("Koo–Toueg reports no blocking")
	}
	if ez.BlockingSec != 0 || mu.BlockingSec != 0 {
		t.Fatal("nonblocking algorithms report blocking")
	}
	if ez.Checkpoints < 15.9 {
		t.Fatalf("Elnozahy checkpoints %.2f, want 16 (all N)", ez.Checkpoints)
	}
	if mu.Checkpoints > ez.Checkpoints+0.01 {
		t.Fatal("mutable takes more checkpoints than all-process Elnozahy")
	}
	if mu.Checkpoints > kt.Checkpoints*1.3+1 {
		t.Fatalf("mutable %.2f far above Koo–Toueg %.2f (both should be ~Nmin)",
			mu.Checkpoints, kt.Checkpoints)
	}
	if !kt.Distributed || !mu.Distributed || ez.Distributed {
		t.Fatal("distributed flags wrong")
	}
	out := harness.FormatTable1(0.01, rows)
	if !strings.Contains(out, "koo-toueg") || !strings.Contains(out, "paper formulas") {
		t.Fatal("FormatTable1 output broken")
	}
}

// TestAblationAvalanche asserts E9's shape: the naive schemes write far
// more stable checkpoints per interval than the mutable scheme.
func TestAblationAvalanche(t *testing.T) {
	rows, err := harness.Sequential().Ablation(0.05, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]harness.AblationRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	simple := byName[harness.AlgoNaiveSimple].StablePerInterval
	revised := byName[harness.AlgoNaiveRevised].StablePerInterval
	mutable := byName[harness.AlgoMutable].StablePerInterval
	if simple < 3*mutable {
		t.Fatalf("simple=%.1f not ≫ mutable=%.1f stable ckpts/interval", simple, mutable)
	}
	if revised < 2*mutable {
		t.Fatalf("revised=%.1f not ≫ mutable=%.1f", revised, mutable)
	}
	if mutable > 17 {
		t.Fatalf("mutable=%.1f stable ckpts/interval, want ≈16", mutable)
	}
	if !strings.Contains(harness.FormatAblation(0.05, rows), "avalanche") &&
		!strings.Contains(harness.FormatAblation(0.05, rows), "Avalanche") {
		t.Fatal("FormatAblation output broken")
	}
}

// TestOutputCommitDelayClaim asserts §5.3.1: the output-commit delay of
// the mutable algorithm is ≈ Nmin·Tch (and below Elnozahy's N·Tch at low
// rates where Nmin < N).
func TestOutputCommitDelayClaim(t *testing.T) {
	seeds := []uint64{1, 2}
	mu, err := harness.Sequential().RunSeeds(harness.Config{
		Algorithm: harness.AlgoMutable, Rate: 0.003, Horizon: 20 * 900 * time.Second,
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	ez, err := harness.Sequential().RunSeeds(harness.Config{
		Algorithm: harness.AlgoElnozahy, Rate: 0.003, Horizon: 20 * 900 * time.Second,
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if mu.Tentative.Mean() >= 15 {
		t.Skip("dependency set saturated at this rate; claim needs Nmin < N")
	}
	if mu.DurationSec.Mean() >= ez.DurationSec.Mean() {
		t.Fatalf("mutable output commit %.1fs not below Elnozahy %.1fs at Nmin=%.1f",
			mu.DurationSec.Mean(), ez.DurationSec.Mean(), mu.Tentative.Mean())
	}
	// ≈ Nmin·Tch with Tch ≈ 2.1 s serialized transfers.
	approx := mu.Tentative.Mean() * 2.1
	if mu.DurationSec.Mean() < approx*0.5 || mu.DurationSec.Mean() > approx*2.5 {
		t.Fatalf("output commit %.1fs vs Nmin*Tch %.1fs out of shape", mu.DurationSec.Mean(), approx)
	}
}

func TestQuickSeeds(t *testing.T) {
	seeds := harness.QuickSeeds(4)
	if len(seeds) != 4 {
		t.Fatal("wrong count")
	}
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
}

func TestGroupWorkloadRun(t *testing.T) {
	res, err := harness.Run(harness.Config{
		Algorithm:  harness.AlgoMutable,
		Workload:   harness.WorkloadGroup,
		Rate:       0.05,
		GroupRatio: 1000,
		Horizon:    harness.ShortHorizon,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConsistencyOK {
		t.Fatalf("inconsistent: %v", res.ConsistencyErr)
	}
	if res.Initiations == 0 {
		t.Fatal("no initiations")
	}
}

// TestCommitFanoutTradeoff asserts the §3.3.5 claim: the targeted update
// approach never wakes uninvolved dozing hosts, while the broadcast wakes
// nearly all of them on every initiation.
func TestCommitFanoutTradeoff(t *testing.T) {
	rows, err := harness.Sequential().CommitFanout(0.05, 8, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]harness.FanoutRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	broadcast := byName[harness.AlgoMutable]
	targeted := byName[harness.AlgoMutableTargeted]
	if broadcast.WakeupsPerInit < 4 {
		t.Fatalf("broadcast woke only %.2f dozing hosts/init, want most of 8", broadcast.WakeupsPerInit)
	}
	if targeted.WakeupsPerInit != 0 {
		t.Fatalf("targeted dissemination woke %.2f dozing hosts/init, want 0", targeted.WakeupsPerInit)
	}
	out := harness.FormatFanout(0.05, 8, rows)
	if !strings.Contains(out, "mutable-targeted") {
		t.Fatal("FormatFanout broken")
	}
}

// TestTargetedDisseminationConsistent runs the targeted variant through
// the standard consistency gauntlet.
func TestTargetedDisseminationConsistent(t *testing.T) {
	res, err := harness.Run(short(harness.AlgoMutableTargeted, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConsistencyOK {
		t.Fatalf("inconsistent: %v", res.ConsistencyErr)
	}
	if res.Initiations == 0 {
		t.Fatal("no initiations")
	}
	for _, e := range res.ClusterErrors {
		t.Errorf("cluster error: %v", e)
	}
}

// TestDozeCountValidation rejects configurations with no active pair.
func TestDozeCountValidation(t *testing.T) {
	_, err := harness.Run(harness.Config{
		Algorithm: harness.AlgoMutable,
		Rate:      0.05,
		DozeCount: 15,
		Horizon:   harness.ShortHorizon,
	})
	if err == nil {
		t.Fatal("DozeCount=N-1 accepted")
	}
}

// TestPointToPointOnlyKnobsValidated: Active and DozeCount are
// point-to-point knobs, rejected up front on any other workload instead of
// silently arming timers (Active) or indexing past the process table
// (DozeCount >= N).
func TestPointToPointOnlyKnobsValidated(t *testing.T) {
	for name, cfg := range map[string]harness.Config{
		"active under group":   {Workload: harness.WorkloadGroup, N: 8, Active: 3},
		"doze beyond N, group": {Workload: harness.WorkloadGroup, N: 4, DozeCount: 5},
	} {
		if _, err := harness.Run(cfg); err == nil || !strings.Contains(err.Error(), "point-to-point workloads only") {
			t.Errorf("%s: err = %v, want the point-to-point-only rejection", name, err)
		}
	}
}

// TestScaleSweepComplexity asserts the complexity claims: Koo–Toueg's
// message count grows superlinearly with N while Elnozahy's and the
// mutable algorithm's grow roughly linearly.
func TestScaleSweepComplexity(t *testing.T) {
	rows, err := harness.Sequential().ScaleSweep([]int{4, 16}, 0.1, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	ktGrowth := large.KooTouegMsg / small.KooTouegMsg
	muGrowth := large.MutableMsg / small.MutableMsg
	ezGrowth := large.ElnozahyMsg / small.ElnozahyMsg
	// N quadrupled: quadratic growth ~16x, linear ~4x.
	if ktGrowth < 8 {
		t.Fatalf("Koo–Toueg growth %.1fx over 4x N, want superlinear (>8x)", ktGrowth)
	}
	if ezGrowth > 6 {
		t.Fatalf("Elnozahy growth %.1fx, want ~linear", ezGrowth)
	}
	if muGrowth >= ktGrowth {
		t.Fatalf("mutable growth %.1fx not below Koo–Toueg %.1fx", muGrowth, ktGrowth)
	}
	if !strings.Contains(harness.FormatScale(0.1, rows), "koo-toueg") {
		t.Fatal("FormatScale broken")
	}
}

// TestIntervalSweepRedundantGrows asserts that shrinking the checkpoint
// interval (so the ~30 s checkpointing window is a larger fraction of it)
// increases redundant mutable checkpoints — the paper's §5.2 explanation
// of why they are rare at 900 s.
func TestIntervalSweepRedundantGrows(t *testing.T) {
	rows, err := harness.Sequential().IntervalSweep(
		[]time.Duration{100 * time.Second, 900 * time.Second}, 0.05, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Redundant <= rows[1].Redundant {
		t.Fatalf("redundant at 100s (%.4f) not above 900s (%.4f)",
			rows[0].Redundant, rows[1].Redundant)
	}
	if !strings.Contains(harness.FormatIntervals(0.05, rows), "interval") {
		t.Fatal("FormatIntervals broken")
	}
}

// TestFigCSV checks the plotting output.
func TestFigCSV(t *testing.T) {
	series, err := harness.Sequential().Fig5([]uint64{1}, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	csv := series.CSV()
	if !strings.HasPrefix(csv, "rate,tentative,") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "\n0.05,") {
		t.Fatalf("csv row missing: %q", csv)
	}
}

// TestActiveSubsetRun exercises the scale ladder's regime on a small
// instance: only the first Active processes generate load and schedule
// checkpoints, the rest are idle spectators in the dependency vectors.
func TestActiveSubsetRun(t *testing.T) {
	cfg := harness.Config{
		Algorithm: harness.AlgoMutable,
		N:         64,
		Seed:      3,
		Workload:  harness.WorkloadP2P,
		Rate:      0.05,
		Horizon:   4 * 900 * time.Second,
		Active:    8,
	}
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConsistencyOK {
		t.Fatalf("permanent line inconsistent: %v", res.ConsistencyErr)
	}
	if res.Initiations == 0 {
		t.Fatal("no checkpoint instances completed with an active subset")
	}
}

// TestScaleLadderEventsIndependentOfN pins the scale ladder's regime:
// with a fixed active set, an instance's cost is set by its participants,
// not by N, so the simulated event count is identical at every rung. The
// run goes through the same sweep call as mcpsim -scale.
func TestScaleLadderEventsIndependentOfN(t *testing.T) {
	const wantEvents = 3206 // seed 1, 1 h, 8 active
	for _, n := range []int{8, 4096, 65536} {
		res, err := harness.Parallel(1).RunSeeds(harness.Config{
			Algorithm: harness.AlgoMutableTargeted,
			N:         n,
			Rate:      0.05,
			Horizon:   time.Hour,
			Active:    8,
		}, []uint64{1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.SimulatedEvents != wantEvents {
			t.Errorf("n=%d: %d simulated events, want %d", n, res.SimulatedEvents, wantEvents)
		}
		if !res.ConsistencyOK {
			t.Errorf("n=%d: recovery line inconsistent: %v", n, res.ConsistencyErr)
		}
		if len(res.ClusterErrors) != 0 {
			t.Errorf("n=%d: cluster errors: %v", n, res.ClusterErrors)
		}
	}
}

// TestSim1kCountsPinned pins the benchmark's sim1k run: N = 1024 on one
// saturated 2 Mbps medium, where tens of thousands of queued deliveries in
// the kernel's FIFO interleave with the heap's timers. The engine goldens
// run small N, so a kernel change that reorders events at this depth fails
// here rather than only in the benchmark. It also holds the run to its
// allocation budget: the message path allocates nothing per delivery,
// engines take their message structs from the simulator's free list, and
// what is left (one copy of each checkpoint's counters, the free lists
// filling to the in-flight high-water mark) stays under maxAllocsPerEvent
// and maxBytesPerEvent. A free list that grows with every message sent,
// or a second copy of each checkpoint, breaks the byte budget.
func TestSim1kCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a full N=1024 simulated hour")
	}
	// Measured on seed 1: 0.341 allocations and 234 B per event.
	const (
		maxAllocsPerEvent = 0.35
		maxBytesPerEvent  = 258
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := harness.Run(harness.Config{
		Algorithm: harness.AlgoMutable,
		Workload:  harness.WorkloadP2P,
		N:         1024,
		Rate:      0.05,
		Horizon:   time.Hour,
		Seed:      1,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.SimulatedEvents)
	bytesPerEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.SimulatedEvents)
	t.Logf("%d allocations, %.3f per event, %.0f B per event", after.Mallocs-before.Mallocs, perEvent, bytesPerEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("%.3f allocations per simulated event, want at most %v", perEvent, maxAllocsPerEvent)
	}
	if bytesPerEvent > maxBytesPerEvent {
		t.Errorf("%.0f allocated bytes per simulated event, want at most %d", bytesPerEvent, maxBytesPerEvent)
	}
	if res.SimulatedEvents != 560071 {
		t.Errorf("%d simulated events, want 560071", res.SimulatedEvents)
	}
	if res.Initiations != 11 {
		t.Errorf("%d initiations, want 11", res.Initiations)
	}
	// Per-initiation means as totals over the 11 initiations: 187 and
	// 35.55 (391/11).
	if got := res.Tentative.Mean() * 11; math.Abs(got-2057) > 1e-6 {
		t.Errorf("tentative checkpoints per initiation %v, want 187", res.Tentative.Mean())
	}
	if got := res.Mutable.Mean() * 11; math.Abs(got-391) > 1e-6 {
		t.Errorf("mutable checkpoints per initiation %v, want 35.55 (391/11)", res.Mutable.Mean())
	}
	if !res.ConsistencyOK {
		t.Errorf("recovery line inconsistent: %v", res.ConsistencyErr)
	}
}
