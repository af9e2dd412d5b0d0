package mutablecp_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the ablations called out in DESIGN.md §5. The
// benchmarks run the same simulations as cmd/mcpcompare and surface
// the headline metrics through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every published number's shape alongside the usual ns/op.

import (
	"testing"
	"time"

	"mutablecp/internal/harness"
)

// benchSeeds keeps benchmark runs fast but non-degenerate.
var benchSeeds = []uint64{1}

const benchHorizon = 10 * 900 * time.Second

func runOne(b *testing.B, cfg harness.Config) *harness.Result {
	b.Helper()
	cfg.Horizon = benchHorizon
	res, err := harness.Sequential().RunSeeds(cfg, benchSeeds)
	if err != nil {
		b.Fatal(err)
	}
	if !cfg.SkipConsistency && !res.ConsistencyOK {
		b.Fatalf("inconsistent: %v", res.ConsistencyErr)
	}
	return res
}

// reportSimRate attaches the simulated-events-per-wall-second throughput of
// the whole stack (bench/'s sim1k tracks the same stack end to end).
func reportSimRate(b *testing.B, events uint64) {
	b.Helper()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "simevents/sec")
	}
}

// BenchmarkFig5 regenerates Fig. 5 (point-to-point communication): the
// tentative and redundant-mutable checkpoint counts per initiation at
// representative sending rates.
func BenchmarkFig5(b *testing.B) {
	for _, rate := range []float64{0.002, 0.01, 0.05, 0.2} {
		rate := rate
		b.Run(formatRate(rate), func(b *testing.B) {
			b.ReportAllocs()
			var res *harness.Result
			var events uint64
			for i := 0; i < b.N; i++ {
				res = runOne(b, harness.Config{
					Algorithm: harness.AlgoMutable,
					Workload:  harness.WorkloadP2P,
					Rate:      rate,
				})
				events += res.SimulatedEvents
			}
			reportSimRate(b, events)
			b.ReportMetric(res.Tentative.Mean(), "tentative/init")
			b.ReportMetric(res.Redundant.Mean(), "redundant/init")
			b.ReportMetric(res.Mutable.Mean(), "mutable/init")
		})
	}
}

// BenchmarkFig6Ratio1000 regenerates the left panel of Fig. 6 (group
// communication, intra/inter ratio 1000).
func BenchmarkFig6Ratio1000(b *testing.B) { benchFig6(b, 1000) }

// BenchmarkFig6Ratio10000 regenerates the right panel of Fig. 6 (ratio
// 10000).
func BenchmarkFig6Ratio10000(b *testing.B) { benchFig6(b, 10000) }

func benchFig6(b *testing.B, ratio float64) {
	for _, rate := range []float64{0.01, 0.05, 0.2} {
		rate := rate
		b.Run(formatRate(rate), func(b *testing.B) {
			b.ReportAllocs()
			var res *harness.Result
			var events uint64
			for i := 0; i < b.N; i++ {
				res = runOne(b, harness.Config{
					Algorithm:  harness.AlgoMutable,
					Workload:   harness.WorkloadGroup,
					GroupRatio: ratio,
					Rate:       rate,
				})
				events += res.SimulatedEvents
			}
			reportSimRate(b, events)
			b.ReportMetric(res.Tentative.Mean(), "tentative/init")
			b.ReportMetric(res.Redundant.Mean(), "redundant/init")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: the three algorithms under an
// identical workload, reporting checkpoints, blocking, output-commit
// delay, and message counts per initiation.
func BenchmarkTable1(b *testing.B) {
	for _, algo := range []string{harness.AlgoKooToueg, harness.AlgoElnozahy, harness.AlgoMutable} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			var res *harness.Result
			var events uint64
			for i := 0; i < b.N; i++ {
				res = runOne(b, harness.Config{
					Algorithm: algo,
					Workload:  harness.WorkloadP2P,
					Rate:      0.01,
				})
				events += res.SimulatedEvents
			}
			reportSimRate(b, events)
			b.ReportMetric(res.Tentative.Mean(), "ckpts/init")
			b.ReportMetric(res.BlockedSec.Mean(), "blocking-s/init")
			b.ReportMetric(res.DurationSec.Mean(), "outputcommit-s")
			b.ReportMetric(res.SysMsgs.Mean(), "msgs/init")
		})
	}
}

// BenchmarkAblationAvalanche regenerates the §3.1.1 ablation (DESIGN.md
// E9): stable-storage checkpoints per 900-second interval for the naive
// schemes versus the mutable scheme.
func BenchmarkAblationAvalanche(b *testing.B) {
	for _, algo := range []string{harness.AlgoNaiveSimple, harness.AlgoNaiveRevised, harness.AlgoMutable} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			var res *harness.Result
			var events uint64
			for i := 0; i < b.N; i++ {
				res = runOne(b, harness.Config{
					Algorithm:       algo,
					Workload:        harness.WorkloadP2P,
					Rate:            0.05,
					SkipConsistency: algo != harness.AlgoMutable,
				})
				events += res.SimulatedEvents
			}
			reportSimRate(b, events)
			b.ReportMetric(float64(res.TotalStable)/res.Intervals, "stable/interval")
			b.ReportMetric(float64(res.TotalMutableCk)/res.Intervals, "mutable/interval")
		})
	}
}

// BenchmarkAblationCommitFanout measures the §3.3.5 trade-off: broadcast
// commits versus the targeted update approach, with half the hosts in
// doze mode. Broadcast wakes every dozing host per initiation; targeted
// spends more point-to-point messages but lets them sleep.
func BenchmarkAblationCommitFanout(b *testing.B) {
	for _, algo := range []string{harness.AlgoMutable, harness.AlgoMutableTargeted} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			var res *harness.Result
			var events uint64
			for i := 0; i < b.N; i++ {
				res = runOne(b, harness.Config{
					Algorithm: algo,
					Workload:  harness.WorkloadP2P,
					Rate:      0.05,
					DozeCount: 8,
				})
				events += res.SimulatedEvents
			}
			reportSimRate(b, events)
			b.ReportMetric(res.SysMsgs.Mean(), "msgs/init")
			if res.Initiations > 0 {
				b.ReportMetric(float64(res.DozeWakeups)/float64(res.Initiations), "wakeups/init")
			}
		})
	}
}

// BenchmarkAblationMarkerFlood contrasts the mutable algorithm's O(N)
// message footprint with Chandy–Lamport's O(N²) marker flood.
func BenchmarkAblationMarkerFlood(b *testing.B) {
	for _, algo := range []string{harness.AlgoMutable, harness.AlgoChandyLamport} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			var res *harness.Result
			var events uint64
			for i := 0; i < b.N; i++ {
				res = runOne(b, harness.Config{
					Algorithm: algo,
					Workload:  harness.WorkloadP2P,
					Rate:      0.05,
				})
				events += res.SimulatedEvents
			}
			reportSimRate(b, events)
			b.ReportMetric(res.SysMsgs.Mean(), "msgs/init")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// events per wall second for the full stack at a busy message rate.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := runOne(b, harness.Config{
			Algorithm: harness.AlgoMutable,
			Workload:  harness.WorkloadP2P,
			Rate:      1.0,
		})
		events += res.SimulatedEvents
	}
	reportSimRate(b, events)
}

func formatRate(rate float64) string {
	switch {
	case rate >= 0.1:
		return "rate=" + itoa(int(rate*100)) + "e-2"
	default:
		return "rate=" + itoa(int(rate*1000)) + "e-3"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
