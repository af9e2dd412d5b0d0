package core_test

import (
	"testing"

	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
)

// Kim–Park partial-commit tests (§3.6): after a participant failure, only
// the contaminated closure aborts; everyone else's checkpoint commits.

// partialWorld builds a chain P0 <- P1 <- P2 and an independent branch
// P0 <- P3, initiates at P0, and delivers the full first phase so every
// participant holds a tentative checkpoint.
func partialWorld(t *testing.T) *world {
	t.Helper()
	w := newWorld(t, 4)
	w.deliver(w.send(2, 1)) // P1 depends on P2
	w.deliver(w.send(1, 0)) // P0 depends on P1
	w.deliver(w.send(3, 0)) // P0 depends on P3
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// First phase completes (requests + replies) but no commit yet: the
	// initiator is still waiting for nothing — weight is complete, so the
	// commit would fire. To keep the instance open for the failure, stop
	// deliveries before the LAST reply.
	return w
}

func TestPartialCommitExcludesContaminatedBranch(t *testing.T) {
	w := newWorld(t, 5)
	// Chain: P0 <- P1 <- P2; independent: P0 <- P3. P4 uninvolved.
	w.deliver(w.send(2, 1))
	w.deliver(w.send(1, 0))
	w.deliver(w.send(3, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// Deliver requests and P1/P2/P3's internal propagation, but hold the
	// replies so the initiator cannot commit on its own.
	for w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest }) != nil {
	}
	if w.envs[1].tentativeTaken != 1 || w.envs[2].tentativeTaken != 1 || w.envs[3].tentativeTaken != 1 {
		t.Fatalf("first phase incomplete: %d/%d/%d",
			w.envs[1].tentativeTaken, w.envs[2].tentativeTaken, w.envs[3].tentativeTaken)
	}
	// Deliver replies so the initiator learns the dependency vectors, but
	// intercept commit: deliver replies one at a time and stop before the
	// initiator reaches weight 1 — actually the initiator commits the
	// moment the last reply lands, so instead simulate the failure first:
	// P2 fails; the initiator would detect it while collecting replies.
	// Deliver P1's and P3's replies (and P2's, which was sent before the
	// crash and may or may not arrive; here it did not).
	for w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindReply && m.From != 2
	}) != nil {
	}
	if !w.engines[0].Initiating() {
		t.Fatal("instance closed before the failure was injected")
	}
	// P2 crashed: Kim–Park partial resolution.
	if err := w.engines[0].AbortPartial(2); err != nil {
		t.Fatal(err)
	}
	w.pump()

	// Contaminated closure: {P2 (failed), P1 (depends on P2), P0 (depends
	// on P1)}. The sibling branch P3 commits — the whole point of
	// Kim–Park over the total abort.
	for _, p := range []int{0, 1, 2} {
		if got := len(w.envs[p].stable.History()); got != 1 {
			t.Fatalf("P%d committed despite contamination (history=%d)", p, got)
		}
	}
	if got := len(w.envs[3].stable.History()); got != 2 {
		t.Fatalf("sibling P3 did not commit (history=%d)", got)
	}
	if w.envs[0].doneCount != 1 || w.envs[0].lastCommitted {
		t.Fatal("contaminated initiator must report a non-committed outcome")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatalf("mixed line inconsistent: %v", err)
	}
}

func TestPartialCommitKeepsIndependentBranch(t *testing.T) {
	w := newWorld(t, 5)
	// P0 <- P1 (clean branch); P0 <- P3 <- P4 where P4 will fail:
	// contaminated = {4, 3}; committed = {0, 1}.
	w.deliver(w.send(1, 0))
	w.deliver(w.send(4, 3))
	w.deliver(w.send(3, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	for w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest }) != nil {
	}
	// Hold P4's reply (it crashed); deliver the others.
	for w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindReply && m.From != 4
	}) != nil {
	}
	if !w.engines[0].Initiating() {
		t.Fatal("instance closed early")
	}
	if err := w.engines[0].AbortPartial(4); err != nil {
		t.Fatal(err)
	}
	w.pump()

	// Contaminated: P4 (failed), P3 (depends on P4), and the initiator P0
	// (depends on P3). The independent branch P1 commits.
	if got := len(w.envs[1].stable.History()); got != 2 {
		t.Fatalf("P1 did not commit (history=%d)", got)
	}
	for _, p := range []int{0, 3, 4} {
		if got := len(w.envs[p].stable.History()); got != 1 {
			t.Fatalf("P%d committed despite contamination (history=%d)", p, got)
		}
		if len(w.envs[p].stable.TentativeTriggers()) != 0 {
			t.Fatalf("P%d keeps a tentative", p)
		}
	}
	// The mixed line (new checkpoint for P1, old for the rest) must be
	// consistent — that is the entire point of the closure rule.
	if err := consistency.Check(w.line()); err != nil {
		t.Fatalf("partial commit produced an inconsistent line: %v", err)
	}
	if w.envs[0].doneCount != 1 || w.envs[0].lastCommitted {
		t.Fatal("contaminated initiator must report a non-committed outcome")
	}
	// Aborted processes restored their dependency state for the retry.
	if !w.engines[3].DependencyVector()[4] {
		t.Fatal("P3's R[4] not restored after partial abort")
	}
}

func TestPartialCommitRequiresInitiator(t *testing.T) {
	w := newWorld(t, 3)
	if err := w.engines[1].AbortPartial(0); err == nil {
		t.Fatal("non-initiator AbortPartial accepted")
	}
}

func TestPartialCommitWithFailedNonParticipant(t *testing.T) {
	// The failed process was never a participant: nothing is
	// contaminated, everything commits.
	w := newWorld(t, 4)
	w.deliver(w.send(1, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	for w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest }) != nil {
	}
	// P3 (uninvolved) fails. Intercept before the replies commit the
	// instance naturally: inject the partial resolution first.
	if err := w.engines[0].AbortPartial(3); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for _, p := range []int{0, 1} {
		if got := len(w.envs[p].stable.History()); got != 2 {
			t.Fatalf("P%d did not commit (history=%d)", p, got)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}
