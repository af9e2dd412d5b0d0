// Command mcpcheck runs the schedule-space model checker: it explores
// same-timestamp tie-break interleavings of a scripted scenario and
// checks the protocol's safety invariants on every schedule (orphan-free
// committed lines, no leaked checkpoints or weight, Lemma 1's pending
// bound, termination within budget).
//
// Usage:
//
//	mcpcheck                                     # 256 random walks of the race scenario
//	mcpcheck -scenario burst -runs 1024 -workers 0
//	mcpcheck -mode exhaust -scenario race -n 3 -max-runs 4096
//	mcpcheck -mode replay -schedule ce.schedule
//	mcpcheck -mode shrink -schedule ce.schedule -expect-violation -out min.schedule
//
// A saved schedule records its scenario, process count and walk seed, so
// replay and shrink need no other flags. The seeded defects the checker
// is validated against are test-only overlays (internal/explore's
// TestMutantsKilled); a binary built under one finds violations, and
// -expect-violation turns that into its passing exit status.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mutablecp/internal/explore"
	"mutablecp/internal/wire"
)

// minN is the smallest process count every catalog scenario scripts.
const minN = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcpcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mcpcheck", flag.ContinueOnError)
	scenario := fs.String("scenario", "race",
		"scenario: "+strings.Join(explore.ScenarioNames(), ", "))
	n := fs.Int("n", 4, "number of processes (with -mode replay/shrink: the schedule's own)")
	budget := fs.Int("budget", 0, "per-run kernel step budget (0 = scenario default)")
	mode := fs.String("mode", "walk", "strategy: walk, exhaust, replay, shrink")
	runs := fs.Int("runs", 256, "with -mode walk: number of random-walk schedules")
	seed := fs.Uint64("seed", 1, "with -mode walk: first walk seed")
	workers := fs.Int("workers", 0, "with -mode walk: worker pool size (0 = all CPUs)")
	maxRuns := fs.Int("max-runs", 4096, "with -mode exhaust: schedule budget")
	maxDepth := fs.Int("max-depth", 64, "with -mode exhaust: branching depth bound")
	noPrune := fs.Bool("no-prune", false, "with -mode exhaust: disable fingerprint pruning")
	schedule := fs.String("schedule", "", "with -mode replay/shrink: schedule file to load")
	outPath := fs.String("out", "", "write the (shrunken) counterexample schedule to this file")
	doShrink := fs.Bool("shrink", true, "shrink counterexamples found by walk/exhaust")
	expect := fs.Bool("expect-violation", false,
		"invert the exit status: succeed only if a violation is found (a seeded defect's test)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate flag combinations up front, before any run starts.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *mode {
	case "walk", "exhaust", "replay", "shrink":
	default:
		return fmt.Errorf("unknown -mode %q (want walk, exhaust, replay, or shrink)", *mode)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1")
	}
	if *budget < 0 {
		return fmt.Errorf("-budget must be >= 0")
	}
	if *mode == "replay" || *mode == "shrink" {
		if *schedule == "" {
			return fmt.Errorf("-mode %s requires -schedule", *mode)
		}
	} else if set["schedule"] {
		return fmt.Errorf("-schedule only applies to -mode replay/shrink (got -mode %s)", *mode)
	}
	if *mode != "walk" {
		for _, f := range []string{"runs", "seed", "workers"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -mode walk (got -mode %s)", f, *mode)
			}
		}
	}
	if *mode != "exhaust" {
		for _, f := range []string{"max-runs", "max-depth", "no-prune"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -mode exhaust (got -mode %s)", f, *mode)
			}
		}
	}
	// A saved schedule replays at the scenario and size it was found at.
	var rec *wire.ScheduleRecord
	name := *scenario
	if *mode == "replay" || *mode == "shrink" {
		var err error
		if rec, err = loadSchedule(*schedule); err != nil {
			return err
		}
		if !set["scenario"] {
			name = rec.Name
		}
		if rec.N != 0 {
			if set["n"] && *n != rec.N {
				return fmt.Errorf("%s was recorded at n=%d, not -n %d", *schedule, rec.N, *n)
			}
			*n = rec.N
		}
	}
	if *n < minN {
		return fmt.Errorf("-n must be >= %d (the scenarios' minimum)", minN)
	}
	s, err := explore.ScenarioByName(name, *n)
	if err != nil {
		return err
	}
	s.Budget = *budget
	out := &wire.ScheduleRecord{Name: s.Name, N: s.N}
	fmt.Fprintf(w, "scenario             %s (n=%d)\n", s.Name, s.N)

	var found *explore.RunResult
	switch *mode {
	case "walk":
		start := time.Now()
		rep, err := s.Walks(*seed, *runs, *workers)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "walks                %d (base seed %d)\n", rep.Runs, rep.BaseSeed)
		fmt.Fprintf(w, "throughput           %.0f schedules/sec (%d steps, %d decisions)\n",
			float64(rep.Runs)/elapsed.Seconds(), rep.Steps, rep.Decisions)
		fmt.Fprintf(w, "unique executions    %d\n", rep.Unique)
		fmt.Fprintf(w, "violations           %d\n", rep.Violations)
		if rep.First != nil {
			fmt.Fprintf(w, "first violation      seed %d: %v\n", rep.FirstSeed, rep.First.Violation)
			found = rep.First
			out.Seed = rep.FirstSeed
		}
	case "exhaust":
		rep, err := s.Exhaust(explore.ExhaustOptions{
			MaxRuns: *maxRuns, MaxDepth: *maxDepth, NoPrune: *noPrune,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "schedules explored   %d (unique %d, pruned %d, truncated %v)\n",
			rep.Runs, rep.Unique, rep.Pruned, rep.Truncated)
		if rep.Violation != nil {
			fmt.Fprintf(w, "violation            %v\n", rep.Violation.Violation)
			found = rep.Violation
		}
	case "replay", "shrink":
		out.Mutant, out.Seed = rec.Mutant, rec.Seed
		if rec.Mutant != "" {
			fmt.Fprintf(w, "recorded against     mutant %s\n", rec.Mutant)
		}
		fmt.Fprintf(w, "schedule             %v (divergence %d)\n", rec.Choices, explore.Divergence(rec.Choices))
		if *mode == "shrink" {
			shr, err := s.Shrink(rec.Choices)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "shrunk               %v (divergence %d) in %d replays\n",
				shr.Schedule, explore.Divergence(shr.Schedule), shr.Runs)
			fmt.Fprintf(w, "violation            %v\n", shr.Result.Violation)
			found = shr.Result
		} else {
			res, err := s.Replay(rec.Choices)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "steps                %d (%d decisions)\n", res.Steps, res.Decisions())
			fmt.Fprintf(w, "fingerprint          %016x\n", res.Fingerprint)
			if res.Violation != nil {
				fmt.Fprintf(w, "violation            %v\n", res.Violation)
				found = res
			} else {
				fmt.Fprintf(w, "violation            none\n")
			}
		}
	}

	if found != nil && *doShrink && (*mode == "walk" || *mode == "exhaust") {
		shr, err := s.Shrink(found.Schedule)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "shrunk               %v (divergence %d) in %d replays\n",
			shr.Schedule, explore.Divergence(shr.Schedule), shr.Runs)
		found = shr.Result
		found.Schedule = shr.Schedule
	}
	if found != nil && *outPath != "" {
		out.Choices = found.Schedule
		if err := saveSchedule(*outPath, out); err != nil {
			return err
		}
		fmt.Fprintf(w, "counterexample       written to %s\n", *outPath)
	}

	if *expect && found == nil {
		return fmt.Errorf("expected a violation, found none")
	}
	if !*expect && found != nil {
		return fmt.Errorf("violation found: %v", found.Violation)
	}
	return nil
}

func loadSchedule(path string) (*wire.ScheduleRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, _, err := wire.DecodeScheduleRecord(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func saveSchedule(path string, rec *wire.ScheduleRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := wire.EncodeScheduleRecord(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
