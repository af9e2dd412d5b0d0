package harness

import (
	"fmt"
	"strings"
	"time"
)

// DefaultRates is the sending-rate sweep (msgs/s per process) used for
// Fig. 5 and Fig. 6. The range covers the regime where the initiator's
// transitive dependency set grows from nearly empty to all N−1 processes
// over a 900-second checkpoint interval.
var DefaultRates = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// FigRow is one x-axis point of Fig. 5 or Fig. 6.
type FigRow struct {
	Rate          float64
	Tentative     float64
	TentativeCI   float64
	Redundant     float64
	RedundantCI   float64
	RedundantPct  float64 // redundant as % of tentative
	Initiations   int
	ConsistencyOK bool
}

// FigSeries is a full figure: one row per swept rate.
type FigSeries struct {
	Title string
	Rows  []FigRow
}

// Fig5 regenerates Fig. 5: tentative and redundant mutable checkpoints per
// initiation vs. message sending rate, point-to-point communication. Every
// (rate, seed) cell is an independent simulation fanned out over the
// Runner's pool.
func (r *Runner) Fig5(seeds []uint64, rates []float64) (*FigSeries, error) {
	return r.figure("Fig. 5: point-to-point communication", Config{
		Algorithm: AlgoMutable,
		Workload:  WorkloadP2P,
	}, seeds, rates)
}

// Fig6 regenerates one panel of Fig. 6: the group-communication
// environment with the given intra/inter rate ratio (paper: 1000 left,
// 10000 right).
func (r *Runner) Fig6(ratio float64, seeds []uint64, rates []float64) (*FigSeries, error) {
	return r.figure(
		fmt.Sprintf("Fig. 6: group communication (intra/inter ratio %g)", ratio),
		Config{
			Algorithm:  AlgoMutable,
			Workload:   WorkloadGroup,
			GroupRatio: ratio,
		}, seeds, rates)
}

func (r *Runner) figure(title string, base Config, seeds []uint64, rates []float64) (*FigSeries, error) {
	if len(rates) == 0 {
		rates = DefaultRates
	}
	merged, err := r.runGrid(len(rates), seeds,
		func(cell int) Config {
			cfg := base
			cfg.Rate = rates[cell]
			return cfg
		},
		func(cell int) string { return fmt.Sprintf("rate %g", rates[cell]) })
	if err != nil {
		return nil, err
	}
	series := &FigSeries{Title: title}
	for i, res := range merged {
		row := FigRow{
			Rate:          rates[i],
			Tentative:     res.Tentative.Mean(),
			TentativeCI:   res.Tentative.CI95(),
			Redundant:     res.Redundant.Mean(),
			RedundantCI:   res.Redundant.CI95(),
			Initiations:   res.Initiations,
			ConsistencyOK: res.ConsistencyOK,
		}
		if row.Tentative > 0 {
			row.RedundantPct = 100 * row.Redundant / row.Tentative
		}
		series.Rows = append(series.Rows, row)
	}
	return series, nil
}

// Format renders the series as an aligned text table.
func (s *FigSeries) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-10s %-22s %-26s %-8s %-6s\n",
		"rate", "tentative ckpts/init", "redundant mutable/init", "red-%", "inits")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-10g %8.3f ± %-11.3f %10.4f ± %-13.4f %6.2f%% %6d\n",
			r.Rate, r.Tentative, r.TentativeCI, r.Redundant, r.RedundantCI, r.RedundantPct, r.Initiations)
	}
	return b.String()
}

// Table1Row is one algorithm's empirically measured line of Table 1,
// paired with the paper's analytic formula.
type Table1Row struct {
	Algorithm    string
	Checkpoints  float64 // stable checkpoints per initiation
	BlockingSec  float64 // mean total blocking time per initiation (s)
	OutputCommit float64 // mean output-commit delay T_ch (s)
	SysMsgs      float64 // system messages per initiation
	Distributed  bool
	Formula      string // the paper's analytic entry
}

// Table1 regenerates Table 1 empirically: the three algorithms under an
// identical workload and seed set. Each (algorithm, seed) cell runs as an
// independent simulation.
func (r *Runner) Table1(rate float64, seeds []uint64) ([]Table1Row, error) {
	entries := []struct {
		algo        string
		distributed bool
		formula     string
	}{
		{AlgoKooToueg, true, "Nmin ckpts; Nmin*Tch blocking; 3*Nmin*Ndep*Cair msgs"},
		{AlgoElnozahy, false, "N ckpts; 0 blocking; 2*Cbroad + N*Cair msgs"},
		{AlgoMutable, true, "Nmin ckpts; 0 blocking; ~2*Nmin*Cair + min(Nmin*Cair, Cbroad) msgs"},
	}
	merged, err := r.runGrid(len(entries), seeds,
		func(cell int) Config {
			return Config{
				Algorithm: entries[cell].algo,
				Workload:  WorkloadP2P,
				Rate:      rate,
			}
		},
		func(cell int) string { return entries[cell].algo })
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(entries))
	for i, res := range merged {
		e := entries[i]
		if !res.ConsistencyOK {
			return nil, fmt.Errorf("%s: inconsistent recovery line: %v", e.algo, res.ConsistencyErr)
		}
		rows = append(rows, Table1Row{
			Algorithm:    e.algo,
			Checkpoints:  res.Tentative.Mean(),
			BlockingSec:  res.BlockedSec.Mean(),
			OutputCommit: res.DurationSec.Mean(),
			SysMsgs:      res.SysMsgs.Mean(),
			Distributed:  e.distributed,
			Formula:      e.formula,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows as an aligned text table.
func FormatTable1(rate float64, rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (measured at rate %g msg/s/process, N=16)\n", rate)
	fmt.Fprintf(&b, "%-15s %-12s %-14s %-18s %-10s %-12s\n",
		"algorithm", "ckpts/init", "blocking (s)", "output commit (s)", "msgs/init", "distributed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-12.2f %-14.2f %-18.2f %-10.1f %-12v\n",
			r.Algorithm, r.Checkpoints, r.BlockingSec, r.OutputCommit, r.SysMsgs, r.Distributed)
	}
	b.WriteString("paper formulas:\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-15s %s\n", r.Algorithm, r.Formula)
	}
	return b.String()
}

// AblationRow compares checkpoint activity between the mutable scheme and
// the §3.1.1 strawmen at one sending rate (experiment E9). Because the
// avalanche can saturate the wireless medium and prevent instances from
// terminating at all, the metric is stable checkpoints per 900-second
// checkpoint interval, computed from run-wide totals.
type AblationRow struct {
	Algorithm         string
	StablePerInterval float64 // stable-storage checkpoints per interval
	MutablePerInt     float64 // mutable (cheap) checkpoints per interval
	SysMsgsTotal      uint64
}

// Ablation runs the avalanche ablation: the naive simple and revised
// schemes take stable checkpoints where the paper's algorithm takes cheap
// mutable ones (or none).
func (r *Runner) Ablation(rate float64, seeds []uint64) ([]AblationRow, error) {
	algos := []string{AlgoNaiveSimple, AlgoNaiveRevised, AlgoMutable}
	merged, err := r.runGrid(len(algos), seeds,
		func(cell int) Config {
			return Config{
				Algorithm:       algos[cell],
				Workload:        WorkloadP2P,
				Rate:            rate,
				Horizon:         10 * 900 * time.Second,
				SkipConsistency: algos[cell] != AlgoMutable,
			}
		},
		func(cell int) string { return algos[cell] })
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, 0, len(algos))
	for i, res := range merged {
		rows = append(rows, AblationRow{
			Algorithm:         algos[i],
			StablePerInterval: float64(res.TotalStable) / res.Intervals,
			MutablePerInt:     float64(res.TotalMutableCk) / res.Intervals,
			SysMsgsTotal:      res.TotalSysMsgs,
		})
	}
	return rows, nil
}

// FormatAblation renders ablation rows.
func FormatAblation(rate float64, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Avalanche ablation (rate %g msg/s/process, N=16)\n", rate)
	fmt.Fprintf(&b, "%-15s %-22s %-22s %-12s\n",
		"scheme", "stable ckpts/interval", "mutable ckpts/interval", "sys msgs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-22.2f %-22.2f %-12d\n",
			r.Algorithm, r.StablePerInterval, r.MutablePerInt, r.SysMsgsTotal)
	}
	return b.String()
}

// QuickSeeds returns k deterministic seeds for experiment sweeps.
func QuickSeeds(k int) []uint64 {
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = uint64(1000 + 7919*i)
	}
	return seeds
}

// ShortHorizon is a reduced horizon for fast tests (10 checkpoint
// intervals).
const ShortHorizon = 10 * 900 * time.Second

// FanoutRow compares the §3.3.5 commit-dissemination approaches at one
// doze configuration: system messages per initiation and wakeups of
// dozing hosts per initiation.
type FanoutRow struct {
	Algorithm       string
	SysMsgsPerInit  float64
	WakeupsPerInit  float64
	TentativePerI   float64
	InitiationCount int
}

// CommitFanout runs the §3.3.5 ablation: broadcast commits wake every
// dozing host on every initiation; the targeted update approach spends
// more point-to-point messages but leaves uninvolved dozing hosts asleep.
func (r *Runner) CommitFanout(rate float64, dozing int, seeds []uint64) ([]FanoutRow, error) {
	algos := []string{AlgoMutable, AlgoMutableTargeted}
	merged, err := r.runGrid(len(algos), seeds,
		func(cell int) Config {
			return Config{
				Algorithm: algos[cell],
				Workload:  WorkloadP2P,
				Rate:      rate,
				DozeCount: dozing,
				Horizon:   20 * 900 * time.Second,
			}
		},
		func(cell int) string { return algos[cell] })
	if err != nil {
		return nil, err
	}
	rows := make([]FanoutRow, 0, len(algos))
	for i, res := range merged {
		algo := algos[i]
		if !res.ConsistencyOK {
			return nil, fmt.Errorf("%s: %v", algo, res.ConsistencyErr)
		}
		inits := float64(res.Initiations)
		if inits == 0 {
			return nil, fmt.Errorf("%s: no initiations", algo)
		}
		rows = append(rows, FanoutRow{
			Algorithm:       algo,
			SysMsgsPerInit:  res.SysMsgs.Mean(),
			WakeupsPerInit:  float64(res.DozeWakeups) / inits,
			TentativePerI:   res.Tentative.Mean(),
			InitiationCount: res.Initiations,
		})
	}
	return rows, nil
}

// FormatFanout renders the commit-dissemination ablation.
func FormatFanout(rate float64, dozing int, rows []FanoutRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Commit dissemination (§3.3.5): rate %g msg/s, %d of 16 hosts dozing\n", rate, dozing)
	fmt.Fprintf(&b, "%-18s %-14s %-22s %-14s\n",
		"dissemination", "msgs/init", "doze wakeups/init", "ckpts/init")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-14.1f %-22.2f %-14.2f\n",
			r.Algorithm, r.SysMsgsPerInit, r.WakeupsPerInit, r.TentativePerI)
	}
	return b.String()
}
