package core_test

import (
	"fmt"
	"testing"

	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
	"mutablecp/internal/xrand"
)

// Concurrent-initiation tests (§3.5). The paper's main presentation
// assumes one instance in flight; these tests exercise the keyed
// mutable/tentative storage that lets the engine survive overlapping
// initiations, the regime the paper defers to Prakash–Singhal [27].

// TestConcurrentDisjointInitiations: two initiators with disjoint
// dependency sets run simultaneously and both commit.
func TestConcurrentDisjointInitiations(t *testing.T) {
	w := newWorld(t, 6)
	// Component A: P0 <- P1; component B: P3 <- P4.
	w.deliver(w.send(1, 0))
	w.deliver(w.send(4, 3))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if err := w.engines[3].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.envs[0].doneCount != 1 || !w.envs[0].lastCommitted {
		t.Fatal("instance A did not commit")
	}
	if w.envs[3].doneCount != 1 || !w.envs[3].lastCommitted {
		t.Fatal("instance B did not commit")
	}
	if w.envs[1].tentativeTaken != 1 || w.envs[4].tentativeTaken != 1 {
		t.Fatal("participants did not checkpoint")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOverlappingInitiations: a process inside instance A
// receives a request for instance B; it must contribute a (second)
// tentative checkpoint for B, and both instances commit with a consistent
// final line.
func TestConcurrentOverlappingInitiations(t *testing.T) {
	w := newWorld(t, 4)
	// P3 -> P1 before anything else: B's initiator P1 depends on P3 and
	// never hears about instance A.
	w.deliver(w.send(3, 1))
	// P2 -> P0: A's initiator depends on P2.
	w.deliver(w.send(2, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P2 inherits A's request.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 2
	}); m == nil {
		t.Fatal("no request to P2")
	}
	if w.envs[2].tentativeTaken != 1 {
		t.Fatal("P2 did not checkpoint for A")
	}
	// AFTER its checkpoint for A, P2 sends to P3 (piggybacking A's
	// trigger): P3 takes a mutable checkpoint for A and becomes a fresh,
	// uncovered dependency of P2.
	w.deliver(w.send(2, 3))
	if w.envs[3].mutableTaken != 1 {
		t.Fatal("P3 did not protect itself with a mutable checkpoint")
	}
	// B initiates at P1 while A is still in flight; its tree runs
	// P1 -> P3 -> P2.
	if err := w.engines[1].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if !w.envs[0].lastCommitted || !w.envs[1].lastCommitted {
		t.Fatal("one of the overlapping instances failed to commit")
	}
	if w.envs[2].tentativeTaken != 2 {
		t.Fatalf("P2 tentative = %d, want 2 (one per instance)", w.envs[2].tentativeTaken)
	}
	if w.envs[3].tentativeTaken != 1 {
		t.Fatalf("P3 tentative = %d, want 1 (inherited B)", w.envs[3].tentativeTaken)
	}
	// P3's mutable checkpoint for A is discarded at A's commit (A's tree
	// never reaches it).
	if w.envs[3].discarded != 1 {
		t.Fatalf("P3 discarded = %d, want 1", w.envs[3].discarded)
	}
	for i := 0; i < w.n; i++ {
		if w.engines[i].PendingTentatives() != 0 {
			t.Fatalf("unresolved tentatives at P%d", i)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInitiationsRandomized: several initiators fire into live
// random traffic; all instances terminate and the final line is
// consistent. This is a stress test of the trigger-keyed bookkeeping.
func TestConcurrentInitiationsRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := xrand.New(seed * 101)
			w := newWorld(t, 6)
			pendingInit := map[int]int{} // initiator -> expected doneCount
			for round := 0; round < 5; round++ {
				randomTraffic(w, rng, 8)
				// Fire up to two initiators without draining in between.
				for k := 0; k < 2; k++ {
					init := rng.Intn(w.n)
					if w.engines[init].InProgress() {
						continue
					}
					if err := w.engines[init].Initiate(); err == nil {
						pendingInit[init]++
					}
				}
				// Deliver a random prefix, then fully drain.
				for len(w.queue) > 0 && rng.Float64() < 0.7 {
					w.deliver(w.queue[0])
				}
				w.pump()
				for init, want := range pendingInit {
					if w.envs[init].doneCount != want {
						t.Fatalf("round %d: P%d completed %d/%d instances",
							round, init, w.envs[init].doneCount, want)
					}
					if !w.envs[init].lastCommitted {
						t.Fatalf("round %d: P%d last instance aborted", round, init)
					}
				}
				if err := consistency.Check(w.line()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i := 0; i < w.n; i++ {
					if w.envs[i].mutable.Len() != 0 {
						t.Fatalf("round %d: P%d holds mutable checkpoints after drain", round, i)
					}
				}
			}
		})
	}
}

// TestAbortDuringOverlappingInitiation (§3.6 under concurrency): a process
// holding tentative checkpoints for TWO overlapping instances receives an
// abort for the first; only the aborted trigger's state may be discarded —
// cp_state and old_csn belong to the still-live second instance, which must
// go on to commit with a consistent line.
func TestAbortDuringOverlappingInitiation(t *testing.T) {
	w := newWorld(t, 4)
	// B's initiator P1 depends on P3 and never hears about instance A.
	w.deliver(w.send(3, 1))
	// A's initiator P0 depends on P2.
	w.deliver(w.send(2, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P2 inherits A's request; its reply stays in flight so A cannot commit.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 2
	}); m == nil {
		t.Fatal("no request to P2")
	}
	// After its checkpoint for A, P2 sends to P3: P3 takes a mutable
	// checkpoint for A and becomes a fresh dependency of P2.
	w.deliver(w.send(2, 3))
	// B initiates while A is in flight; its tree runs P1 -> P3 -> P2.
	if err := w.engines[1].Initiate(); err != nil {
		t.Fatal(err)
	}
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 3
	}); m == nil {
		t.Fatal("no request to P3")
	}
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 2
	}); m == nil {
		t.Fatal("no propagated request to P2")
	}
	if w.engines[2].PendingTentatives() != 2 {
		t.Fatalf("P2 pending = %d, want 2 (A and B)", w.engines[2].PendingTentatives())
	}
	oldCSN := w.engines[2].OldCSN()

	// A's initiator gives up (§3.6) while B is still in flight.
	if err := w.engines[0].AbortCurrent(); err != nil {
		t.Fatal(err)
	}
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindAbort && m.To == 2
	}); m == nil {
		t.Fatal("no abort to P2")
	}
	// Only A's tentative is gone; B's context is untouched.
	if got := w.engines[2].PendingTentatives(); got != 1 {
		t.Fatalf("P2 pending after abort = %d, want 1 (B)", got)
	}
	if !w.engines[2].InProgress() {
		t.Fatal("abort of A clobbered P2's cp_state while B is in flight")
	}
	if got := w.engines[2].OldCSN(); got != oldCSN {
		t.Fatalf("abort of A rolled old_csn back to %d (was %d) despite B's newer tentative",
			got, oldCSN)
	}

	w.pump()
	if w.envs[0].doneCount != 1 || w.envs[0].lastCommitted {
		t.Fatal("instance A did not end in an abort")
	}
	if w.envs[1].doneCount != 1 || !w.envs[1].lastCommitted {
		t.Fatal("instance B did not commit")
	}
	if w.envs[2].tentativeTaken != 2 {
		t.Fatalf("P2 tentative = %d, want 2", w.envs[2].tentativeTaken)
	}
	// P3's mutable checkpoint for A is discarded by A's abort.
	if w.envs[3].discarded != 1 {
		t.Fatalf("P3 discarded = %d, want 1", w.envs[3].discarded)
	}
	for i := 0; i < w.n; i++ {
		if w.engines[i].PendingTentatives() != 0 {
			t.Fatalf("unresolved tentatives at P%d", i)
		}
		if len(w.envs[i].stable.TentativeTriggers()) != 0 {
			t.Fatalf("leaked stable tentative at P%d", i)
		}
		if w.envs[i].mutable.Len() != 0 {
			t.Fatalf("leaked mutable checkpoint at P%d", i)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestLateMessagesAfterAbort: on an unreliable network a propagated
// request or a trigger-tagged computation message can arrive AFTER the
// initiator's abort broadcast (they travel on different channels). The
// receiver must not take checkpoints for the dead instance — nothing would
// ever commit or discard them.
func TestLateMessagesAfterAbort(t *testing.T) {
	w := newWorld(t, 3)
	w.deliver(w.send(1, 0)) // A's initiator P0 depends on P1.
	w.deliver(w.send(2, 1)) // P1 depends on P2.
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P1 inherits and propagates A's request toward P2; the propagated
	// request stays in flight.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 1
	}); m == nil {
		t.Fatal("no request to P1")
	}
	if err := w.engines[0].AbortCurrent(); err != nil {
		t.Fatal(err)
	}
	// The abort overtakes the propagated request at P2.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindAbort && m.To == 2
	}); m == nil {
		t.Fatal("no abort to P2")
	}
	// A computation message from P1 (still inside A) arrives late at P2:
	// delivered, but no mutable checkpoint, no cp_state induction.
	w.deliver(w.send(1, 2))
	if w.envs[2].mutableTaken != 0 {
		t.Fatal("late computation message induced a mutable checkpoint for an aborted instance")
	}
	if w.engines[2].InProgress() {
		t.Fatal("late computation message induced cp_state for an aborted instance")
	}
	// The propagated request arrives late at P2: no tentative checkpoint.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 2
	}); m == nil {
		t.Fatal("no propagated request to P2")
	}
	if w.envs[2].tentativeTaken != 0 {
		t.Fatal("late propagated request induced a tentative checkpoint for an aborted instance")
	}

	w.pump()
	for i := 0; i < w.n; i++ {
		if w.engines[i].PendingTentatives() != 0 {
			t.Fatalf("unresolved tentatives at P%d", i)
		}
		if len(w.envs[i].stable.TentativeTriggers()) != 0 {
			t.Fatalf("leaked stable tentative at P%d", i)
		}
		if w.envs[i].mutable.Len() != 0 {
			t.Fatalf("leaked mutable checkpoint at P%d", i)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInitiationsInSimulator runs the full simulator without
// the SingleInitiation guard: per-process timers fire independently and
// instances overlap freely.
func TestConcurrentInitiationsInSimulator(t *testing.T) {
	// Covered at the simrt layer; here we only assert the engine API
	// invariant that overlapping Initiate calls at ONE process error out.
	w := newWorld(t, 3)
	w.deliver(w.send(1, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if err := w.engines[0].Initiate(); err == nil {
		t.Fatal("nested Initiate at one process accepted")
	}
	w.pump()
}

var _ = protocol.NoTrigger
