package harness

import (
	"fmt"
	"strings"
	"time"
)

// ScaleRow is one point of the N-scaling sweep: per-initiation message
// costs of the three Table 1 algorithms at system size N.
type ScaleRow struct {
	N           int
	KooTouegMsg float64
	ElnozahyMsg float64
	MutableMsg  float64
	MutableCkpt float64
}

// ScaleSweep measures how the system-message overhead grows with N at a
// rate where the dependency set saturates: the paper's complexity claims
// (Koo–Toueg O(N·Ndep) → O(N²); mutable and Elnozahy O(N)) become visible
// as the curves diverge. Every (N, algorithm, seed) cell is an independent
// simulation.
func (r *Runner) ScaleSweep(ns []int, rate float64, seeds []uint64) ([]ScaleRow, error) {
	if len(ns) == 0 {
		ns = []int{4, 8, 16, 32}
	}
	algos := []string{AlgoKooToueg, AlgoElnozahy, AlgoMutable}
	merged, err := r.runGrid(len(ns)*len(algos), seeds,
		func(cell int) Config {
			return Config{
				Algorithm: algos[cell%len(algos)],
				N:         ns[cell/len(algos)],
				Workload:  WorkloadP2P,
				Rate:      rate,
				Horizon:   15 * 900 * time.Second,
			}
		},
		func(cell int) string {
			return fmt.Sprintf("N=%d %s", ns[cell/len(algos)], algos[cell%len(algos)])
		})
	if err != nil {
		return nil, err
	}
	rows := make([]ScaleRow, 0, len(ns))
	for i, n := range ns {
		row := ScaleRow{N: n}
		for j, algo := range algos {
			res := merged[i*len(algos)+j]
			if !res.ConsistencyOK {
				return nil, fmt.Errorf("N=%d %s: %v", n, algo, res.ConsistencyErr)
			}
			switch algo {
			case AlgoKooToueg:
				row.KooTouegMsg = res.SysMsgs.Mean()
			case AlgoElnozahy:
				row.ElnozahyMsg = res.SysMsgs.Mean()
			case AlgoMutable:
				row.MutableMsg = res.SysMsgs.Mean()
				row.MutableCkpt = res.Tentative.Mean()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatScale renders the N-scaling sweep.
func FormatScale(rate float64, rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Message overhead vs system size (rate %g msg/s/process)\n", rate)
	fmt.Fprintf(&b, "%-6s %-20s %-20s %-20s\n",
		"N", "koo-toueg msgs/init", "elnozahy msgs/init", "mutable msgs/init")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-20.1f %-20.1f %-20.1f\n",
			r.N, r.KooTouegMsg, r.ElnozahyMsg, r.MutableMsg)
	}
	return b.String()
}

// IntervalRow is one point of the checkpoint-interval sweep.
type IntervalRow struct {
	Interval    time.Duration
	Tentative   float64
	Redundant   float64
	DurationSec float64
}

// IntervalSweep varies the paper's 900-second checkpoint interval: shorter
// intervals shrink every dependency window (fewer tentative checkpoints
// per initiation) while the checkpointing time itself stays put, so the
// redundant-mutable window grows in relative terms.
func (r *Runner) IntervalSweep(intervals []time.Duration, rate float64, seeds []uint64) ([]IntervalRow, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{
			100 * time.Second, 300 * time.Second, 900 * time.Second, 2700 * time.Second,
		}
	}
	merged, err := r.runGrid(len(intervals), seeds,
		func(cell int) Config {
			return Config{
				Algorithm: AlgoMutable,
				Workload:  WorkloadP2P,
				Rate:      rate,
				Interval:  intervals[cell],
				Horizon:   40 * intervals[cell],
			}
		},
		func(cell int) string { return fmt.Sprintf("interval %v", intervals[cell]) })
	if err != nil {
		return nil, err
	}
	rows := make([]IntervalRow, 0, len(intervals))
	for i, res := range merged {
		if !res.ConsistencyOK {
			return nil, fmt.Errorf("interval %v: %v", intervals[i], res.ConsistencyErr)
		}
		rows = append(rows, IntervalRow{
			Interval:    intervals[i],
			Tentative:   res.Tentative.Mean(),
			Redundant:   res.Redundant.Mean(),
			DurationSec: res.DurationSec.Mean(),
		})
	}
	return rows, nil
}

// FormatIntervals renders the interval sweep.
func FormatIntervals(rate float64, rows []IntervalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint-interval sensitivity (rate %g msg/s/process, N=16)\n", rate)
	fmt.Fprintf(&b, "%-10s %-18s %-18s %-14s\n",
		"interval", "tentative/init", "redundant/init", "T_ch (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-18.2f %-18.4f %-14.2f\n",
			r.Interval, r.Tentative, r.Redundant, r.DurationSec)
	}
	return b.String()
}

// CSV renders a figure series as comma-separated values for plotting.
func (s *FigSeries) CSV() string {
	var b strings.Builder
	b.WriteString("rate,tentative,tentative_ci95,redundant,redundant_ci95,initiations\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%g,%g,%g,%g,%g,%d\n",
			r.Rate, r.Tentative, r.TentativeCI, r.Redundant, r.RedundantCI, r.Initiations)
	}
	return b.String()
}
