package explore

import "testing"

// TestRecoveryMutationDetectedShrunkAndReplayed: the crash+recover
// scenarios must catch a broken executor. Under the skip-dedup mutant the
// executor replays each sender's whole log without deduplicating against
// the restored checkpoint's receive counters, so every message the
// checkpoint already covered is delivered twice, and the live-state check
// inside the recovery event reports KindDuplicateDelivery. The correct
// executor survives 10x as many walks.
func TestRecoveryMutationDetectedShrunkAndReplayed(t *testing.T) {
	detectShrinkReplay(t, ReplayScenario(corpusN), KindDuplicateDelivery)
}

// TestRecoverScenarioExercisesRecovery pins that both crash scenarios
// actually crash and recover under the default schedule (a regression
// guard for the script timings drifting away from the crash window).
func TestRecoverScenarioExercisesRecovery(t *testing.T) {
	for _, name := range []string{"recover", "replay"} {
		s, err := ScenarioByName(name, corpusN)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Crashes) == 0 {
			t.Fatalf("%s scenario scripts no crash", name)
		}
		run, err := s.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if run.Violation != nil {
			t.Fatalf("%s default schedule violates: %v", name, run.Violation)
		}
		if run.Steps == 0 {
			t.Fatalf("%s ran zero steps", name)
		}
	}
}
