package explore

// Mutation testing: the proof that the explorer finds real bugs. Each
// mutant under testdata/mutants removes one safety-critical guard, and
// TestMutantsKilled runs the tests here under it: random walks must
// detect it within a small budget, the counterexample must shrink and
// replay byte-deterministically, and a bounded exhaustive search must
// find it too. Each shrunk counterexample is written to the directory
// counterexampleEnv names, and the runner replays it on the correct
// code, which must pass it. Without a mutant the correct engine must
// survive 10x the walk budget and the same exhaustive search.
//
// Run `go test ./internal/explore -run TestMutantsKilled -args -update`
// to regenerate the committed counterexample corpus under testdata/ from
// freshly found-and-shrunk schedules.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mutablecp/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the testdata counterexample corpus")

// mutationWalkBudget is the "small budget": random walks allowed to find
// each mutant. The correct engine must survive 10x this.
const mutationWalkBudget = 128

// corpusN is the scenario size the committed corpus is recorded at.
const corpusN = 4

// detectShrinkReplay is both halves of the walk-budget claim for s.
// Without a mutant, s must survive 10x the budget. Under one, some walk
// within the budget must violate with kind (any kind if ""), the
// counterexample must shrink without growing and replay to the identical
// execution, and it is saved for the runner to replay on correct code.
func detectShrinkReplay(t *testing.T, s Scenario, kind string) {
	t.Helper()
	if mutant() == "" {
		surviveTenfold(t, s)
		return
	}
	rep, err := s.Walks(1, mutationWalkBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.First == nil {
		t.Fatalf("mutant %s survived %d random walks undetected", mutant(), mutationWalkBudget)
	}
	if kind != "" && rep.First.Violation.Kind != kind {
		t.Fatalf("violation kind %q, want %q", rep.First.Violation.Kind, kind)
	}
	t.Logf("detected at seed %d (%d/%d walks violated): %v",
		rep.FirstSeed, rep.Violations, rep.Runs, rep.First.Violation)

	shr, err := s.Shrink(rep.First.Schedule)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if shr.Result.Violation == nil {
		t.Fatal("shrunken schedule no longer fails")
	}
	if Divergence(shr.Schedule) > Divergence(rep.First.Schedule) {
		t.Fatalf("shrink increased divergence: %v -> %v", rep.First.Schedule, shr.Schedule)
	}
	t.Logf("shrunk %v (divergence %d) -> %v (divergence %d) in %d replays",
		rep.First.Schedule, Divergence(rep.First.Schedule),
		shr.Schedule, Divergence(shr.Schedule), shr.Runs)

	// Byte-deterministic replay: the shrunken counterexample reproduces
	// the identical execution every time.
	once, err := s.Replay(shr.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := s.Replay(shr.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if once.Fingerprint != twice.Fingerprint {
		t.Fatalf("replay not deterministic: %x vs %x", once.Fingerprint, twice.Fingerprint)
	}
	if once.Violation == nil || once.Violation.Kind != shr.Result.Violation.Kind {
		t.Fatalf("replay violation %v does not reproduce shrunk violation %v",
			once.Violation, shr.Result.Violation)
	}
	writeCounterexample(t, &wire.ScheduleRecord{
		Name: s.Name, Mutant: mutant(), N: s.N, Seed: rep.FirstSeed, Choices: shr.Schedule,
	})
}

// writeCounterexample saves rec as <scenario>-<mutant>.schedule in the
// directory counterexampleEnv names. Outside the runner it is unset and
// nothing is written.
func writeCounterexample(t *testing.T, rec *wire.ScheduleRecord) {
	t.Helper()
	dir := os.Getenv(counterexampleEnv)
	if dir == "" {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.schedule", rec.Name, rec.Mutant))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.EncodeScheduleRecord(f, rec); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMutationsDetectedShrunkAndReplayed(t *testing.T) {
	detectShrinkReplay(t, RaceScenario(corpusN), "")
}

// surviveTenfold gives the correct engine 10x the walk budget a mutant
// is found within: zero violations allowed.
func surviveTenfold(t *testing.T, s Scenario) {
	t.Helper()
	rep, err := s.Walks(1, 10*mutationWalkBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%s: unmutated engine violated %d/%d walks; first (seed %d): %v",
			s.Name, rep.Violations, rep.Runs, rep.FirstSeed, rep.First.Violation)
	}
	t.Logf("%s: %d walks clean (%d unique executions, %d decisions)",
		s.Name, rep.Runs, rep.Unique, rep.Decisions)
}

// TestUnmutatedSurvivesTenfoldBudget walks the catalog scenarios no
// detection test walks at 10x the budget. Race and replay get theirs
// from TestMutationsDetectedShrunkAndReplayed and
// TestRecoveryMutationDetectedShrunkAndReplayed.
func TestUnmutatedSurvivesTenfoldBudget(t *testing.T) {
	for _, name := range []string{"abort", "burst", "recover"} {
		s, err := ScenarioByName(name, corpusN)
		if err != nil {
			t.Fatal(err)
		}
		surviveTenfold(t, s)
	}
}

// TestExhaustFindsMutations proves the bounded DFS strategy also detects
// the mutant, without randomness, on the minimal 3-process scenario;
// every interleaving the same search reaches in the correct engine must
// satisfy the oracle.
func TestExhaustFindsMutations(t *testing.T) {
	rep, err := RaceScenario(3).Exhaust(ExhaustOptions{MaxRuns: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if mutant() == "" {
		if rep.Violation != nil {
			t.Fatalf("correct engine violated under exhaust: %v (schedule %v)",
				rep.Violation.Violation, rep.Violation.Schedule)
		}
		if rep.Runs < 10 {
			t.Fatalf("exhaust explored only %d schedules", rep.Runs)
		}
		t.Logf("exhaust: %d runs, %d unique, %d pruned, truncated=%v",
			rep.Runs, rep.Unique, rep.Pruned, rep.Truncated)
		return
	}
	if rep.Violation == nil {
		t.Fatalf("mutant %s survived %d exhaustively searched schedules", mutant(), rep.Runs)
	}
	t.Logf("%s: found after %d schedules: %v (schedule %v)",
		mutant(), rep.Runs, rep.Violation.Violation, rep.Violation.Schedule)
}
