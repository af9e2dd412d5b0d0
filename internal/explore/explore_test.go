package explore

import (
	"testing"
)

// TestDefaultScheduleClean runs every catalog scenario under the default
// schedule: the unmutated engine must be clean, and the scenario must
// actually contain tie-break decision points (otherwise it explores
// nothing).
func TestDefaultScheduleClean(t *testing.T) {
	for _, name := range ScenarioNames() {
		s, err := ScenarioByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Replay(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Violation != nil {
			t.Fatalf("%s: default schedule violated: %v", name, res.Violation)
		}
		if res.Decisions() == 0 {
			t.Fatalf("%s: no decision points — scenario has no ties to explore", name)
		}
		if res.Steps == 0 {
			t.Fatalf("%s: no events fired", name)
		}
	}
}

// TestReplayByteDeterministic proves the replay contract: a random walk's
// recorded schedule replays to the identical execution fingerprint, and
// re-replaying is idempotent.
func TestReplayByteDeterministic(t *testing.T) {
	s := RaceScenario(4)
	for seed := uint64(1); seed <= 16; seed++ {
		walk, err := s.RandomWalk(seed)
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.RandomWalk(seed)
		if err != nil {
			t.Fatal(err)
		}
		if walk.Fingerprint != again.Fingerprint {
			t.Fatalf("seed %d: same walk diverged: %x vs %x", seed, walk.Fingerprint, again.Fingerprint)
		}
		replayed, err := s.Replay(walk.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if replayed.Fingerprint != walk.Fingerprint {
			t.Fatalf("seed %d: replay fingerprint %x != walk %x", seed, replayed.Fingerprint, walk.Fingerprint)
		}
		if len(replayed.Schedule) != len(walk.Schedule) {
			t.Fatalf("seed %d: replay recorded %d decisions, walk %d", seed, len(replayed.Schedule), len(walk.Schedule))
		}
	}
}

// TestAlwaysZeroWalkEqualsDefault pins the chooser contract end to end:
// an empty schedule replays to the same execution as the recorded
// default-order run.
func TestAlwaysZeroWalkEqualsDefault(t *testing.T) {
	s := BurstScenario(4)
	def, err := s.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	zeros, err := s.Replay(make([]int, len(def.Schedule)))
	if err != nil {
		t.Fatal(err)
	}
	if def.Fingerprint != zeros.Fingerprint {
		t.Fatalf("explicit-zero schedule diverged from default: %x vs %x", def.Fingerprint, zeros.Fingerprint)
	}
}

// TestWalksDeterministicAcrossWorkers proves the fan-out merge is
// independent of parallelism.
func TestWalksDeterministicAcrossWorkers(t *testing.T) {
	s := RaceScenario(4)
	seq, err := s.Walks(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.Walks(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Unique != par.Unique || seq.Violations != par.Violations ||
		seq.Steps != par.Steps || seq.Decisions != par.Decisions ||
		seq.FirstSeed != par.FirstSeed {
		t.Fatalf("parallel walks diverged from sequential:\nseq %+v\npar %+v", seq, par)
	}
	if seq.Unique < 2 {
		t.Fatalf("random walks reached only %d distinct executions — ties are not being explored", seq.Unique)
	}
}

// TestExhaustCleanOnUnmutated bounds-exhausts the small catalog
// scenarios other than race, which TestExhaustFindsMutations searches:
// every reachable interleaving of the correct engine must satisfy the
// oracle.
func TestExhaustCleanOnUnmutated(t *testing.T) {
	for _, name := range ScenarioNames() {
		if name == "race" {
			continue
		}
		s, err := ScenarioByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Exhaust(ExhaustOptions{MaxRuns: 1500})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation != nil {
			t.Fatalf("%s: unmutated engine violated under exhaust: %v (schedule %v)",
				name, rep.Violation.Violation, rep.Violation.Schedule)
		}
		if rep.Runs < 2 {
			t.Fatalf("%s: exhaust explored only %d schedule", name, rep.Runs)
		}
		t.Logf("%s: %d runs, %d unique, %d pruned, truncated=%v",
			name, rep.Runs, rep.Unique, rep.Pruned, rep.Truncated)
	}
}

// TestExhaustPruningSound compares pruned and unpruned bounded searches:
// pruning may only skip work, never change the verdict. Both searches
// must find the violation under a mutant and none in the correct engine.
func TestExhaustPruningSound(t *testing.T) {
	s := RaceScenario(3)
	pruned, err := s.Exhaust(ExhaustOptions{MaxRuns: 400})
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Exhaust(ExhaustOptions{MaxRuns: 400, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	want := mutant() != ""
	if (pruned.Violation != nil) != want || (full.Violation != nil) != want {
		t.Fatalf("under mutant %q: pruned=%v full=%v, want violations %v",
			mutant(), pruned.Violation, full.Violation, want)
	}
}

// TestShrinkRejectsPassingSchedule pins the shrink precondition.
func TestShrinkRejectsPassingSchedule(t *testing.T) {
	if _, err := RaceScenario(4).Shrink(nil); err == nil {
		t.Fatal("shrinking a passing schedule must error")
	}
}

// BenchmarkWalks256 is 256 random-walk schedules of the race scenario per
// op, through the whole explorer stack: chooser hook, invariant oracle,
// fingerprinting and the deterministic merge.
func BenchmarkWalks256(b *testing.B) {
	s := RaceScenario(4)
	var walks uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Walks(1, 256, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Violations != 0 {
			b.Fatalf("unmutated engine violated: %v", rep.First.Violation)
		}
		walks += uint64(rep.Runs)
	}
	b.ReportMetric(float64(walks)/b.Elapsed().Seconds(), "schedules/sec")
}
