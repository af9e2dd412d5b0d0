package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mutablecp/internal/explore"
	"mutablecp/internal/wire"
)

// underMutant reports whether the binary was built under one of the
// seeded defects (internal/explore's TestMutantsKilled sets the name).
func underMutant() bool { return os.Getenv("MUTABLECP_MUTANT") != "" }

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown mode", []string{"-mode", "fuzz"}, "unknown -mode"},
		{"bad runs", []string{"-runs", "0"}, "-runs must be >= 1"},
		{"negative budget", []string{"-budget", "-1"}, "-budget must be >= 0"},
		{"negative n", []string{"-n", "-3"}, "-n must be >= 3"},
		{"zero n", []string{"-n", "0"}, "-n must be >= 3"},
		{"n below scenario minimum", []string{"-n", "2"}, "-n must be >= 3"},
		{"replay needs schedule", []string{"-mode", "replay"}, "requires -schedule"},
		{"shrink needs schedule", []string{"-mode", "shrink"}, "requires -schedule"},
		{"schedule with walk", []string{"-schedule", "x"}, "-schedule only applies"},
		{"runs with exhaust", []string{"-mode", "exhaust", "-runs", "9"}, "-runs only applies to -mode walk"},
		{"seed with exhaust", []string{"-mode", "exhaust", "-seed", "9"}, "-seed only applies to -mode walk"},
		{"max-runs with walk", []string{"-max-runs", "9"}, "-max-runs only applies to -mode exhaust"},
		{"no-prune with walk", []string{"-no-prune"}, "-no-prune only applies to -mode exhaust"},
		// Seeded defects are test-only overlays, not a flag.
		{"unknown mutation", []string{"-mutation", "skip-mutable"}, "flag provided but not defined: -mutation"},
		{"unknown scenario", []string{"-scenario", "bogus"}, "unknown scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want error containing %q", tc.args, err.Error(), tc.want)
			}
		})
	}
}

// TestWalkCleanAndMutationPipeline exercises the CLI end to end. On the
// correct engine a walk exits zero and -expect-violation makes it fail.
// Under a mutant a walk finds, shrinks and saves a counterexample that
// records its size and seed, and replay and shrink consume the file.
func TestWalkCleanAndMutationPipeline(t *testing.T) {
	if !underMutant() {
		if err := run([]string{"-runs", "16", "-workers", "2"}, io.Discard); err != nil {
			t.Fatalf("clean walk failed: %v", err)
		}
		if err := run([]string{"-runs", "16", "-expect-violation"}, io.Discard); err == nil {
			t.Fatal("clean walk with -expect-violation must fail")
		}
		return
	}

	ce := filepath.Join(t.TempDir(), "ce.schedule")
	if err := run([]string{"-runs", "128", "-expect-violation", "-out", ce}, io.Discard); err != nil {
		t.Fatalf("mutated walk did not find a violation: %v", err)
	}
	rec, err := loadSchedule(ce)
	if err != nil {
		t.Fatal(err)
	}
	if rec.N != 4 || rec.Seed == 0 {
		t.Fatalf("saved record has n=%d seed=%d, want n=4 and the walk seed", rec.N, rec.Seed)
	}
	if err := run([]string{"-mode", "replay", "-schedule", ce, "-expect-violation"}, io.Discard); err != nil {
		t.Fatalf("replay of saved counterexample: %v", err)
	}
	if err := run([]string{"-mode", "shrink", "-schedule", ce, "-expect-violation"}, io.Discard); err != nil {
		t.Fatalf("shrink of saved counterexample: %v", err)
	}
}

// TestExhaustMode: a bounded exhaustive search of the correct engine is
// clean. Under a mutant it finds a counterexample at n=3, which replays at
// n=3 without -n, and a disagreeing -n is refused.
func TestExhaustMode(t *testing.T) {
	if !underMutant() {
		if err := run([]string{"-mode", "exhaust", "-scenario", "race", "-n", "3",
			"-max-runs", "50"}, io.Discard); err != nil {
			t.Fatalf("clean exhaust failed: %v", err)
		}
		return
	}
	ce := filepath.Join(t.TempDir(), "ce.schedule")
	if err := run([]string{"-mode", "exhaust", "-scenario", "race", "-n", "3",
		"-max-runs", "2000", "-expect-violation", "-out", ce}, io.Discard); err != nil {
		t.Fatalf("exhaust did not detect the mutant: %v", err)
	}
	var out bytes.Buffer
	if err := run([]string{"-mode", "replay", "-schedule", ce, "-expect-violation"}, &out); err != nil {
		t.Fatalf("replay of the exhaust counterexample: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "race (n=3)") {
		t.Fatalf("replay did not run at the recorded n=3:\n%s", out.String())
	}
	if err := run([]string{"-mode", "replay", "-schedule", ce, "-n", "4"}, io.Discard); err == nil {
		t.Fatal("replay at -n 4 of a schedule recorded at n=3 accepted")
	}
}

// TestReplayUsesRecordedN: a saved schedule replays at the process count
// it records, whatever -n defaults to; an explicit -n that disagrees is
// refused; a version-1 record, which has no count, replays at -n.
func TestReplayUsesRecordedN(t *testing.T) {
	s := explore.RaceScenario(3)
	walk, err := s.RandomWalk(5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v2 := filepath.Join(dir, "n3.schedule")
	if err := saveSchedule(v2, &wire.ScheduleRecord{Name: "race", N: 3, Choices: walk.Schedule}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-mode", "replay", "-schedule", v2}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"race (n=3)", fmt.Sprintf("fingerprint          %016x", walk.Fingerprint)} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("replay output lacks %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-mode", "replay", "-schedule", v2, "-n", "3"}, io.Discard); err != nil {
		t.Fatalf("agreeing -n refused: %v", err)
	}
	err = run([]string{"-mode", "shrink", "-schedule", v2, "-n", "4"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "recorded at n=3") {
		t.Fatalf("disagreeing -n: %v, want a refusal", err)
	}

	v1 := filepath.Join("..", "..", "internal", "explore", "testdata", "race-skip-mutable.schedule")
	out.Reset()
	if err := run([]string{"-mode", "replay", "-schedule", v1}, &out); err != nil {
		t.Fatalf("correct engine fails the version-1 corpus schedule: %v", err)
	}
	for _, want := range []string{"race (n=4)", "recorded against     mutant skip-mutable"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("replay output lacks %q:\n%s", want, out.String())
		}
	}
}
