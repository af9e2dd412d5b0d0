// Command mcpcompare regenerates the paper's evaluation (§5): Table 1,
// the empirical comparison of the mutable-checkpoint algorithm against
// Koo–Toueg (blocking, min-process) and Elnozahy–Johnson–Zwaenepoel
// (nonblocking, all-process); the §3.1.1 avalanche ablation; and the
// figures of §5.2 — Fig. 5 (point-to-point communication) and both
// panels of Fig. 6 (group communication), the tentative and redundant
// mutable checkpoint series per message sending rate.
//
// Usage:
//
//	mcpcompare
//	mcpcompare -rate 0.01 -seeds 5
//	mcpcompare -ablation
//	mcpcompare -fig 5
//	mcpcompare -fig 6 -ratio 10000
//	mcpcompare -all -seeds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mutablecp/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcpcompare:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcpcompare", flag.ContinueOnError)
	rate := fs.Float64("rate", 0.01, "per-process message sending rate (msgs/s)")
	seeds := fs.Int("seeds", 3, "number of independent simulation seeds")
	ablation := fs.Bool("ablation", false, "run the §3.1.1 avalanche ablation instead of Table 1")
	fanout := fs.Bool("fanout", false, "run the §3.3.5 commit-dissemination ablation (doze-mode wakeups)")
	dozing := fs.Int("dozing", 8, "number of dozing hosts for -fanout")
	scale := fs.Bool("scale", false, "sweep system size N: message-complexity comparison")
	intervals := fs.Bool("intervals", false, "sweep the checkpoint interval")
	fig := fs.Int("fig", 0, "regenerate a figure instead of Table 1: 5 or 6")
	ratio := fs.Float64("ratio", 1000, "Fig. 6 intra/inter rate ratio (1000 or 10000)")
	all := fs.Bool("all", false, "regenerate Fig. 5 and both Fig. 6 panels")
	rateList := fs.String("rates", "", "figures: comma-separated sending rates (msgs/s); default sweep")
	csv := fs.Bool("csv", false, "figures: emit comma-separated values for plotting")
	parallel := fs.Int("parallel", 0,
		"worker pool size for independent simulation cells; 0 = all CPUs, 1 = sequential")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seedList := harness.QuickSeeds(*seeds)
	runner := harness.Parallel(*parallel)

	if *all || *fig != 0 {
		rates, err := parseRates(*rateList)
		if err != nil {
			return err
		}
		return figures(runner, *fig, *all, *ratio, rates, seedList, *csv)
	}
	if *scale {
		rows, err := runner.ScaleSweep(nil, *rate, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatScale(*rate, rows))
		return nil
	}
	if *intervals {
		rows, err := runner.IntervalSweep(nil, *rate, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatIntervals(*rate, rows))
		return nil
	}

	if *fanout {
		rows, err := runner.CommitFanout(*rate, *dozing, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatFanout(*rate, *dozing, rows))
		return nil
	}
	if *ablation {
		rows, err := runner.Ablation(*rate, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatAblation(*rate, rows))
		return nil
	}
	rows, err := runner.Table1(*rate, seedList)
	if err != nil {
		return err
	}
	fmt.Println(harness.FormatTable1(*rate, rows))
	return nil
}

// figures prints Fig. 5 or Fig. 6 at ratio, or with all Fig. 5 and both
// Fig. 6 panels.
func figures(runner *harness.Runner, fig int, all bool, ratio float64, rates []float64, seeds []uint64, csv bool) error {
	emit := func(series *harness.FigSeries, err error) error {
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(series.CSV())
		} else {
			fmt.Println(series.Format())
		}
		return nil
	}
	switch {
	case all:
		if err := emit(runner.Fig5(seeds, rates)); err != nil {
			return err
		}
		for _, r := range []float64{1000, 10000} {
			if err := emit(runner.Fig6(r, seeds, rates)); err != nil {
				return err
			}
		}
		return nil
	case fig == 5:
		return emit(runner.Fig5(seeds, rates))
	case fig == 6:
		return emit(runner.Fig6(ratio, seeds, rates))
	default:
		return fmt.Errorf("unknown figure %d (want 5 or 6)", fig)
	}
}

func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", p, err)
		}
		rates = append(rates, v)
	}
	return rates, nil
}
