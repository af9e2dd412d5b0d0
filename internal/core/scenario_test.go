package core_test

import (
	"testing"

	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
)

// TestInitiatorWithoutDependenciesCommitsImmediately covers the trivial
// instance: no R entries, no requests, weight stays 1.
func TestInitiatorWithoutDependenciesCommitsImmediately(t *testing.T) {
	w := newWorld(t, 3)
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if w.envs[0].doneCount != 1 || !w.envs[0].lastCommitted {
		t.Fatal("dependency-free initiation did not commit immediately")
	}
	w.pump() // commit broadcast
	if got := w.envs[0].stable.Permanent().State.CSN; got != 1 {
		t.Fatalf("initiator permanent csn = %d, want 1", got)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestSingleDependencyTree covers the basic two-process instance: P0
// depends on P1; P1 inherits the request and both commit.
func TestSingleDependencyTree(t *testing.T) {
	w := newWorld(t, 2)
	m := w.send(1, 0)
	w.deliver(m)
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if w.envs[0].doneCount != 0 {
		t.Fatal("initiator committed before P1 replied")
	}
	w.pump()
	if w.envs[0].doneCount != 1 || !w.envs[0].lastCommitted {
		t.Fatal("instance did not commit")
	}
	if w.envs[1].tentativeTaken != 1 {
		t.Fatalf("P1 tentative = %d, want 1", w.envs[1].tentativeTaken)
	}
	for i := range w.envs {
		if got := w.envs[i].stable.Permanent().State.CSN; got == 0 {
			t.Fatalf("P%d still on initial checkpoint", i)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestFig1OrphanPreventedByMutableCheckpoint replays the interleaving of
// the paper's Fig. 1 — which creates an orphan under naive checkpointing —
// against the mutable-checkpoint algorithm and shows consistency holds:
// P1 checkpoints, then sends m1 to P3; P3 processes m1 BEFORE its request
// arrives, and must not record m1 in the checkpoint it contributes.
func TestFig1OrphanPreventedByMutableCheckpoint(t *testing.T) {
	w := newWorld(t, 3) // P1=0, P2=1, P3=2 (paper numbering -1)
	p1, p2, p3 := 0, 1, 2

	// Dependencies: P2 received from P1 and P3 earlier.
	w.deliver(w.send(p1, p2))
	w.deliver(w.send(p3, p2))
	// P3 must have sent in its current interval for Condition 2; its send
	// to P2 above covers that.

	if err := w.engines[p2].Initiate(); err != nil {
		t.Fatal(err)
	}
	// Deliver P2's request to P1 only; P1 checkpoints and then sends m1.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == p1
	}); m == nil {
		t.Fatal("no request to P1")
	}
	if w.envs[p1].tentativeTaken != 1 {
		t.Fatal("P1 did not checkpoint on request")
	}
	m1 := w.send(p1, p3)
	w.deliver(m1) // m1 reaches P3 before P2's request does

	// P3 must protect itself with a mutable checkpoint before processing
	// m1 (it has sent this interval and has not heard about P2's
	// initiation).
	if w.envs[p3].mutableTaken != 1 {
		t.Fatalf("P3 mutable = %d, want 1", w.envs[p3].mutableTaken)
	}

	w.pump() // request to P3, replies, commit
	if w.envs[p2].doneCount != 1 {
		t.Fatal("instance did not terminate")
	}
	// P3's contributed checkpoint is the promoted mutable checkpoint,
	// taken before m1 was processed — no orphan.
	if w.envs[p3].promoted != 1 {
		t.Fatalf("P3 promoted = %d, want 1", w.envs[p3].promoted)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatalf("Fig. 1 interleaving produced an orphan: %v", err)
	}
	// The receive of m1 must not be in P3's permanent checkpoint.
	if got := w.envs[p3].stable.Permanent().State.RecvFrom[p1]; got != 0 {
		t.Fatalf("P3's checkpoint records %d receives from P1, want 0", got)
	}
}

// TestFig3MutableCheckpoints replays the paper's Fig. 3 walk-through: two
// concurrent initiations (P2's and P0's), mutable checkpoints C1,1/C3,1
// promoted for P2's instance, and C1,2 taken for P0's instance but
// discarded at its commit.
func TestFig3MutableCheckpoints(t *testing.T) {
	w := newWorld(t, 5)
	p0, p1, p2, p3, p4 := 0, 1, 2, 3, 4

	// Establish P2's dependencies on P1, P3, P4.
	w.deliver(w.send(p1, p2))
	w.deliver(w.send(p3, p2))
	w.deliver(w.send(p4, p2))

	// P2 initiates and its request reaches P4 first.
	if err := w.engines[p2].Initiate(); err != nil {
		t.Fatal(err)
	}
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == p4
	}); m == nil {
		t.Fatal("no request to P4")
	}
	if w.envs[p4].tentativeTaken != 1 {
		t.Fatal("P4 did not checkpoint")
	}

	// P4 sends m3 to P3; it arrives before P2's request to P3.
	m3 := w.send(p4, p3)
	w.deliver(m3)
	if w.envs[p3].mutableTaken != 1 {
		t.Fatalf("P3 mutable (C3,1) = %d, want 1", w.envs[p3].mutableTaken)
	}

	// P3 sends m2 to P1; it arrives before P2's request to P1.
	m2 := w.send(p3, p1)
	w.deliver(m2)
	if w.envs[p1].mutableTaken != 1 {
		t.Fatalf("P1 mutable (C1,1) = %d, want 1", w.envs[p1].mutableTaken)
	}

	// P0 independently initiates (no dependencies — commits at once) and,
	// while P1 still hasn't seen that commit, sends m1 to P1.
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P1 sends m4 in its current interval (condition 2 for C1,2).
	w.deliver(w.send(p1, p4))
	m1 := w.send(p0, p1)
	// NOTE: P0 has committed, but its commit broadcast is still queued; at
	// send time cp_state was already 0, so m1 carries no trigger and C1,2
	// is NOT needed. Deliver m1 now:
	w.deliver(m1)
	if w.envs[p1].mutableTaken != 1 {
		t.Fatalf("P1 took unnecessary C1,2 after P0's instance finished: %d", w.envs[p1].mutableTaken)
	}

	// Now P2's requests reach P1 and P3: mutable checkpoints promote.
	w.pump()
	if w.envs[p1].promoted != 1 || w.envs[p3].promoted != 1 {
		t.Fatalf("promotions: P1=%d P3=%d, want 1/1", w.envs[p1].promoted, w.envs[p3].promoted)
	}
	if w.envs[p2].doneCount != 1 || !w.envs[p2].lastCommitted {
		t.Fatal("P2's instance did not commit")
	}
	// All five processes hold consistent permanents.
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
	// m2's receive must not be recorded in P1's permanent (C1,1 precedes
	// processing m2).
	if got := w.envs[p1].stable.Permanent().State.RecvFrom[p3]; got != 1 {
		// P1 received one message from P3 before C1,1? No: the mutable was
		// taken before processing m2, and the earlier P3->P2 message went
		// elsewhere. So the count must be 0.
		t.Logf("note: P1 recvFrom[P3] in permanent = %d", got)
	}
	if got := w.envs[p1].stable.Permanent().State.RecvFrom[p3]; got != 0 {
		t.Fatalf("P1's permanent records %d receives from P3, want 0 (C1,1 taken before m2)", got)
	}
}

// TestFig3MutableC12TakenAndDiscarded is the Fig. 3 variant where P0 is
// still inside its checkpointing instance when it sends m1, so P1 must
// take mutable checkpoint C1,2 — and discard it when P0's instance
// commits.
func TestFig3MutableC12TakenAndDiscarded(t *testing.T) {
	w := newWorld(t, 5)
	p0, p1 := 0, 1

	// P0 depends on P4 so that its instance stays open until we deliver
	// the reply.
	w.deliver(w.send(4, p0))
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if w.envs[p0].doneCount != 0 {
		t.Fatal("P0 committed too early for this scenario")
	}

	// P1 has sent in its interval (condition 2).
	w.deliver(w.send(p1, 2))
	// P0 (cp_state=1) sends m1 to P1: C1,2 must be taken.
	m1 := w.send(p0, p1)
	w.deliver(m1)
	if w.envs[p1].mutableTaken != 1 {
		t.Fatalf("P1 mutable (C1,2) = %d, want 1", w.envs[p1].mutableTaken)
	}
	if w.envs[p1].tentativeTaken != 0 {
		t.Fatal("C1,2 went to stable storage; it must stay local")
	}

	// Finish P0's instance: request to P4, reply, commit broadcast.
	w.pump()
	if w.envs[p0].doneCount != 1 {
		t.Fatal("P0's instance did not commit")
	}
	// C1,2 discarded without ever touching stable storage (redundant).
	if w.envs[p1].discarded != 1 || w.envs[p1].promoted != 0 {
		t.Fatalf("P1 discarded=%d promoted=%d, want 1/0", w.envs[p1].discarded, w.envs[p1].promoted)
	}
	if w.envs[p1].mutable.Len() != 0 {
		t.Fatal("mutable store not empty after discard")
	}
	// R and sent must be restored: P1 sent to P2 and received from P0 in
	// what is once again its current interval.
	if !w.engines[p1].Sent() {
		t.Fatal("sent flag not restored after discarding the mutable checkpoint")
	}
	if !w.engines[p1].DependencyVector()[p0] {
		t.Fatal("R[P0] not restored after discarding the mutable checkpoint")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestFig4RequestSuppressedByCSN replays Fig. 4: a stale request (m1 was
// sent before P2's checkpoint C2,1) must not force checkpoints C2,2/C1,2.
func TestFig4RequestSuppressedByCSN(t *testing.T) {
	w := newWorld(t, 4) // P1=0, P2=1, P3=2
	p1, p2, p3 := 0, 1, 2

	// m2: P1 -> P2 (P2 depends on P1); m1: P2 -> P3 (P3 depends on P2).
	w.deliver(w.send(p1, p2))
	w.deliver(w.send(p2, p3))

	// P2 initiates: C2,1, forcing C1,1 at P1. Deliver everything except
	// the commit broadcast to P3 — in the paper's figure P3 initiates
	// before learning of C2,1, so csn_3[2] is still the value m1 carried.
	if err := w.engines[p2].Initiate(); err != nil {
		t.Fatal(err)
	}
	for w.deliverMatching(func(m *protocol.Message) bool { return m.To != p3 }) != nil {
	}
	if w.envs[p1].tentativeTaken != 1 || w.envs[p2].tentativeTaken != 1 {
		t.Fatalf("first instance: P1=%d P2=%d tentative", w.envs[p1].tentativeTaken, w.envs[p2].tentativeTaken)
	}

	// P3 initiates: its request to P2 carries req_csn = csn_3[2] = 0 from
	// m1, which P2's old_csn = 1 exceeds -> no C2,2, no C1,2.
	if err := w.engines[p3].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.envs[p3].doneCount != 1 || !w.envs[p3].lastCommitted {
		t.Fatal("P3's instance did not commit")
	}
	if w.envs[p2].tentativeTaken != 1 {
		t.Fatalf("P2 took the unnecessary checkpoint C2,2 (tentative=%d)", w.envs[p2].tentativeTaken)
	}
	if w.envs[p1].tentativeTaken != 1 {
		t.Fatalf("P1 took the unnecessary checkpoint C1,2 (tentative=%d)", w.envs[p1].tentativeTaken)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestDeclinedRequestKeepsCSN replays the smallest live-cluster orphan
// (N = 3). P1 declines P0's stale request as in Fig. 4. P0, now past its
// checkpoint, sends P1 m. A later request for the same instance reaches P1
// through P2 and is not stale. If the decline had already raised
// csn_1[0], m would pass handleComputation's first branch with no mutable
// checkpoint, and the tentative P1 then takes would record m's receive
// while P0's checkpoint does not record its send.
func TestDeclinedRequestKeepsCSN(t *testing.T) {
	w := newWorld(t, 3)
	p0, p1, p2 := 0, 1, 2

	w.deliver(w.send(p1, p0)) // P0 depends on P1 with csn_0[1] = 0
	// P1 checkpoints alone. Its commit stays queued to P0, so P0's
	// request will carry the stale req_csn 0 against P1's old_csn 1.
	if err := w.engines[p1].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindCommit && m.To == p2 })
	w.deliver(w.send(p1, p2)) // P2 depends on P1 with csn_2[1] = 1
	w.deliver(w.send(p2, p0)) // P0 depends on P2

	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == p1
	}); m == nil {
		t.Fatal("no request from P0 to P1")
	}
	if w.envs[p1].tentativeTaken != 1 {
		t.Fatalf("P1 tentative = %d, want 1: the stale request was not declined", w.envs[p1].tentativeTaken)
	}
	w.deliver(w.send(p0, p1)) // m, sent after P0's tentative
	if w.envs[p1].mutableTaken != 1 {
		t.Errorf("P1 mutable = %d, want 1 before processing m", w.envs[p1].mutableTaken)
	}

	w.pump() // P2's request to P1, replies, commits
	if w.envs[p0].doneCount != 1 || !w.envs[p0].lastCommitted {
		t.Fatal("P0's instance did not commit")
	}
	if w.envs[p1].promoted != 1 {
		t.Errorf("P1 promoted = %d, want 1", w.envs[p1].promoted)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatalf("declined request left an orphan: %v", err)
	}
}

// promoteAfterCommit replays, up to its promotion, the live-cluster trace
// that panicked "a tentative checkpoint is already pending" (N = 6). P1
// adopts (2,1) from P2's computation message, takes a mutable checkpoint
// for (3,2) on P5's, sees (2,1) commit, and then promotes the mutable on
// P4's request for (3,2). With p5Depends, P5 also received from P1 after
// the adoption, so P5's request for (3,2) is still queued to P1 and is
// not stale: it carries req_csn 1 against P1's old_csn 1.
func promoteAfterCommit(t *testing.T, p5Depends bool) *world {
	t.Helper()
	w := newWorld(t, 6)
	p0, p1, p2, p3, p4, p5 := 0, 1, 2, 3, 4, 5
	trig21 := protocol.Trigger{Pid: p2, Inum: 1}
	isRequest := func(from, to protocol.ProcessID) func(*protocol.Message) bool {
		return func(m *protocol.Message) bool {
			return m.Kind == protocol.KindRequest && m.From == from && m.To == to
		}
	}

	// P3 spends its first instance alone, so the one below is (3,2).
	if err := w.engines[p3].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	w.deliver(w.send(p0, p2)) // P2 depends on P0
	w.deliver(w.send(p4, p3)) // P3 depends on P4 and P5
	w.deliver(w.send(p5, p3))

	if err := w.engines[p2].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliver(w.send(p2, p1)) // 1. P1 adopts (2,1)
	if got := w.engines[p1].Inside(); len(got) != 1 || got[0] != trig21 {
		t.Fatalf("P1 is inside %v, want [%v]", got, trig21)
	}
	w.deliver(w.send(p1, p4)) // P4 depends on P1 with csn_4[1] = 1
	if p5Depends {
		w.deliver(w.send(p1, p5))
	}

	if err := w.engines[p3].Initiate(); err != nil {
		t.Fatal(err)
	}
	if w.deliverMatching(isRequest(p3, p5)) == nil {
		t.Fatal("no request from P3 to P5")
	}
	w.deliver(w.send(p5, p1)) // 2. carries (3,2): P1 takes a mutable
	if w.envs[p1].mutableTaken != 1 {
		t.Fatalf("P1 mutable = %d, want 1", w.envs[p1].mutableTaken)
	}

	// 3. (2,1) commits everywhere; P1 is left inside (3,2) alone.
	if w.deliverMatching(isRequest(p2, p0)) == nil {
		t.Fatal("no request from P2 to P0")
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindReply && m.To == p2 })
	for w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindCommit && m.Trigger == trig21 }) != nil {
	}
	if got := w.engines[p1].Inside(); len(got) != 1 || got[0] != (protocol.Trigger{Pid: p3, Inum: 2}) {
		t.Fatalf("P1 is inside %v after (2,1) committed, want [(3,2)]", got)
	}

	// 4. P4 inherits (3,2), and its request promotes P1's mutable.
	if w.deliverMatching(isRequest(p3, p4)) == nil {
		t.Fatal("no request from P3 to P4")
	}
	if w.deliverMatching(isRequest(p4, p1)) == nil {
		t.Fatal("no request from P4 to P1")
	}
	if w.envs[p1].promoted != 1 {
		t.Fatalf("P1 promoted = %d, want 1", w.envs[p1].promoted)
	}
	return w
}

// TestPromotedTriggerDeclinesSecondTentative: 5. a later request for
// (3,2) reaches P1, which already holds (3,2)'s tentative through the
// promotion. It must answer as "already checkpointed", not inherit the
// request and take a second tentative for the same trigger.
func TestPromotedTriggerDeclinesSecondTentative(t *testing.T) {
	w := promoteAfterCommit(t, true)
	p1, p3, p5 := 1, 3, 5
	if w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.From == p5 && m.To == p1
	}) == nil {
		t.Fatal("no request from P5 to P1")
	}
	if got := w.envs[p1].tentativeTaken; got != 1 {
		t.Fatalf("P1 tentative = %d, want 1 (the promoted mutable)", got)
	}
	w.pump()
	if w.envs[p3].doneCount != 2 || !w.envs[p3].lastCommitted {
		t.Fatal("P3's instance (3,2) did not commit")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionClearsOnItsCommit: the promotion puts P1 in cp_state for
// (3,2), so (3,2)'s commit must take it out again. A promotion that
// left own_trigger at (2,1) kept P1 in cp_state for good, and the live
// cluster reported "not quiescent".
func TestPromotionClearsOnItsCommit(t *testing.T) {
	w := promoteAfterCommit(t, false)
	w.pump()
	if w.envs[3].doneCount != 2 || !w.envs[3].lastCommitted {
		t.Fatal("P3's instance (3,2) did not commit")
	}
	for i, e := range w.engines {
		if e.InProgress() {
			t.Errorf("P%d still in cp_state after every instance committed", i)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestDecidedTriggerTakesNoCheckpoint: P1 sends m while still in
// cp_state for (0,1), and m reaches P2 only after P2 has seen (0,1) commit
// and csn_2[0] has moved on to 2. No request of (0,1) can follow, so m
// needs no mutable checkpoint, and P2 must not adopt the dead trigger:
// nothing would ever take it out of cp_state again.
func TestDecidedTriggerTakesNoCheckpoint(t *testing.T) {
	w := newWorld(t, 3)
	p0, p1, p2 := 0, 1, 2
	trig01 := protocol.Trigger{Pid: p0, Inum: 1}

	w.deliver(w.send(p1, p0)) // P0 depends on P1
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest && m.To == p1 })
	m := w.send(p1, p2) // carries (0,1): P1 is inside it
	if m.Trigger != trig01 {
		t.Fatalf("m carries %v, want %v", m.Trigger, trig01)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindReply })
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindCommit && m.To == p2 })
	// P0's next, dependency-free instance (0,2) raises csn_2[0] to 2.
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindCommit && m.To == p2 })
	w.send(p2, p0) // P2 has sent in its interval (condition 2)

	w.deliver(m)
	if got := w.envs[p2].mutableTaken; got != 0 {
		t.Errorf("P2 took %d mutable checkpoints for the decided instance (0,1)", got)
	}
	if w.engines[p2].InProgress() {
		t.Error("P2 adopted the decided instance (0,1) into cp_state")
	}
	w.pump()
	for i, e := range w.engines {
		if e.InProgress() {
			t.Errorf("P%d still in cp_state after every instance committed", i)
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestOlderCommitKeepsNewerPermanent: P2 holds a tentative for (0,1),
// then, before (0,1)'s commit reaches it, inherits (1,1) and takes a
// second one. (1,1)'s commit arrives first. (0,1)'s commit, arriving
// after, must not make the older state P2's newest permanent: P1's
// permanent records receiving m2, which only P2's (1,1) checkpoint
// records sending.
func TestOlderCommitKeepsNewerPermanent(t *testing.T) {
	w := newWorld(t, 3)
	p0, p1, p2 := 0, 1, 2
	trig01 := protocol.Trigger{Pid: p0, Inum: 1}
	commitTo := func(trig protocol.Trigger, to protocol.ProcessID) func(*protocol.Message) bool {
		return func(m *protocol.Message) bool {
			return m.Kind == protocol.KindCommit && m.Trigger == trig && m.To == to
		}
	}

	w.deliver(w.send(p2, p0)) // P0 depends on P2
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest && m.To == p2 })
	m2 := w.send(p2, p1) // after P2's (0,1) tentative
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindReply && m.To == p0 })
	if w.envs[p0].doneCount != 1 {
		t.Fatal("(0,1) did not commit at P0")
	}
	w.deliverMatching(commitTo(trig01, p1))
	w.deliver(m2)

	if err := w.engines[p1].Initiate(); err != nil { // (1,1), depending on P2
		t.Fatal(err)
	}
	trig11 := w.engines[p1].OwnTrigger()
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest && m.To == p2 })
	if got := w.envs[p2].tentativeTaken; got != 2 {
		t.Fatalf("P2 tentative = %d, want 2", got)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindReply && m.To == p1 })
	w.deliverMatching(commitTo(trig11, p2))
	w.deliverMatching(commitTo(trig01, p2))
	w.pump()

	if got := w.envs[p2].stable.Permanent().State.SentTo[p1]; got != 1 {
		t.Errorf("P2's newest permanent records %d sends to P1, want 1 (its (1,1) checkpoint)", got)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestTentativeReachesMutableDependencies: P1 received from P2, then took
// a mutable checkpoint for (0,1), which split that dependency off R. A
// request for (3,2) then makes P1 take a tentative, which records the
// receive from P2 too, so the request must reach P2 as well: otherwise
// (3,2) commits a receive whose send no checkpoint of P2 records.
func TestTentativeReachesMutableDependencies(t *testing.T) {
	w := newWorld(t, 4)
	p0, p1, p2, p3 := 0, 1, 2, 3
	trig01 := protocol.Trigger{Pid: p0, Inum: 1}

	w.deliver(w.send(p3, p0)) // P0 depends on P3
	w.deliver(w.send(p2, p1)) // P1 depends on P2
	mb := w.send(p1, p3)      // P1 has sent (condition 2); delivered later
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliver(w.send(p0, p1)) // carries (0,1): P1 takes a mutable
	if w.envs[p1].mutableTaken != 1 {
		t.Fatalf("P1 mutable = %d, want 1", w.envs[p1].mutableTaken)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest && m.To == p3 })
	w.deliver(mb) // P3 depends on P1, after P3's (0,1) tentative
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindReply && m.To == p0 })
	w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindCommit && m.Trigger == trig01 && m.To == p3
	})

	if err := w.engines[p3].Initiate(); err != nil { // (3,2)
		t.Fatal(err)
	}
	w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindRequest && m.To == p1 })
	if w.envs[p1].tentativeTaken != 1 {
		t.Fatalf("P1 tentative = %d, want 1", w.envs[p1].tentativeTaken)
	}
	w.pump()
	if w.envs[p2].tentativeTaken != 1 {
		t.Errorf("P2 tentative = %d, want 1: (3,2)'s request did not reach it", w.envs[p2].tentativeTaken)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestLaterInstanceStampsLaterSends replays the trace of the live
// cluster's last orphan (N = 4 here). P1 holds a tentative for (0,1),
// whose commit has not reached it, and takes a mutable checkpoint for
// (3,1) on P3's message. Its next send m must carry (3,1) too: stamped
// with (0,1) alone, m reaches P2, which has seen (0,1) commit, on the
// fast path; (3,1)'s request then makes P2 take a tentative recording m,
// while P1's (3,1) checkpoint is the mutable taken before sending it.
func TestLaterInstanceStampsLaterSends(t *testing.T) {
	w := newWorld(t, 4)
	p0, p1, p2, p3 := 0, 1, 2, 3
	trig01 := protocol.Trigger{Pid: p0, Inum: 1}
	trig31 := protocol.Trigger{Pid: p3, Inum: 1}
	isKind := func(k protocol.Kind, from, to protocol.ProcessID) func(*protocol.Message) bool {
		return func(m *protocol.Message) bool { return m.Kind == k && m.From == from && m.To == to }
	}

	w.deliver(w.send(p1, p0)) // P0 depends on P1
	if err := w.engines[p0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.deliverMatching(isKind(protocol.KindRequest, p0, p1)) // P1's (0,1) tentative
	w.deliverMatching(isKind(protocol.KindReply, p1, p0))   // (0,1) decided
	w.deliverMatching(isKind(protocol.KindCommit, p0, p2))  // P2 knows it; P1 not yet
	w.deliver(w.send(p1, p0))                               // P1 has sent (condition 2)
	w.deliver(w.send(p2, p3))                               // P3 depends on P2

	if err := w.engines[p3].Initiate(); err != nil { // (3,1)
		t.Fatal(err)
	}
	w.deliver(w.send(p3, p1)) // carries (3,1): P1 takes a mutable
	if w.envs[p1].mutableTaken != 1 {
		t.Fatalf("P1 mutable = %d, want 1", w.envs[p1].mutableTaken)
	}
	m := w.send(p1, p2)
	if m.Trigger != trig31 || len(m.Earlier) != 1 || m.Earlier[0] != trig01 {
		t.Errorf("m carries %v and earlier %v, want %v and [%v]", m.Trigger, m.Earlier, trig31, trig01)
	}
	w.deliver(m)
	if w.envs[p2].mutableTaken != 1 {
		t.Errorf("P2 mutable = %d, want 1 before processing m", w.envs[p2].mutableTaken)
	}
	w.pump()
	if w.envs[p3].doneCount != 1 || !w.envs[p3].lastCommitted {
		t.Fatal("(3,1) did not commit")
	}
	for i, e := range w.engines {
		if e.InProgress() {
			t.Errorf("P%d still inside %v after every instance committed", i, e.Inside())
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestCSNHidesNoInstance: P1 is inside (0,1) and (2,1), and its
// request for (2,1) has raised csn_3[1] to P1's csn, so P1's next message
// m reaches P3 with a csn P3 has seen. m still carries (0,1), which P3
// does not know: P3 must join it before processing m. Otherwise P3's
// next send m3 carries (2,1) alone, P4 records it in a tentative for
// (0,1), whose request makes P3 take one recording m too, while P1's
// (0,1) checkpoint is the mutable taken before sending m.
func TestRequestCSNHidesNoInstance(t *testing.T) {
	w := newWorld(t, 5)
	p0, p1, p2, p3, p4 := 0, 1, 2, 3, 4
	trig01 := protocol.Trigger{Pid: p0, Inum: 1}
	isKind := func(k protocol.Kind, from, to protocol.ProcessID) func(*protocol.Message) bool {
		return func(m *protocol.Message) bool { return m.Kind == k && m.From == from && m.To == to }
	}

	w.deliver(w.send(p4, p0))                        // P0 depends on P4; P4 has sent
	w.deliver(w.send(p3, p1))                        // P1 depends on P3
	w.deliver(w.send(p1, p2))                        // P2 depends on P1; P1 has sent
	if err := w.engines[p0].Initiate(); err != nil { // (0,1)
		t.Fatal(err)
	}
	w.deliver(w.send(p0, p1))                        // carries (0,1): P1 takes a mutable
	if err := w.engines[p2].Initiate(); err != nil { // (2,1)
		t.Fatal(err)
	}
	w.deliverMatching(isKind(protocol.KindRequest, p2, p1)) // P1 inherits (2,1)
	w.deliverMatching(isKind(protocol.KindRequest, p1, p3)) // P3 inherits (2,1); csn_3[1] = P1's csn
	m := w.send(p1, p3)
	if m.CSN != w.engines[p3].CSN()[p1] {
		t.Fatalf("m carries csn %d, P3 has csn_3[1] = %d: the scenario needs them equal", m.CSN, w.engines[p3].CSN()[p1])
	}
	w.deliver(m)
	if in := w.engines[p3].Inside(); len(in) != 2 || in[1] != trig01 {
		t.Errorf("P3 is inside %v after m, want (2,1) and then %v", in, trig01)
	}
	w.deliver(w.send(p3, p4))                               // m3
	w.deliverMatching(isKind(protocol.KindRequest, p0, p4)) // (0,1) reaches P4 after m3
	w.pump()
	for i, e := range w.engines {
		if e.InProgress() {
			t.Errorf("P%d still inside %v after every instance committed", i, e.Inside())
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestMutableReachesHeldMutableDependencies: P1 received from P2, took a
// mutable for (0,1), then one for (3,1) while still holding the first, on
// sends it made before either. (0,1) commits without P1, and (3,1)'s
// request promotes the second mutable. It records the receive from P2
// too, so its request must reach P2, along the first mutable's vector.
func TestMutableReachesHeldMutableDependencies(t *testing.T) {
	w := newWorld(t, 6)
	p0, p1, p2, p3, p4, p5 := 0, 1, 2, 3, 4, 5

	w.deliver(w.send(p5, p0))                        // (0,1) will depend on P5
	w.deliver(w.send(p1, p3))                        // (3,1) will depend on P1; P1 has sent
	w.deliver(w.send(p2, p1))                        // P1 depends on P2
	if err := w.engines[p0].Initiate(); err != nil { // (0,1)
		t.Fatal(err)
	}
	w.deliver(w.send(p0, p1))                        // carries (0,1): P1's first mutable
	if err := w.engines[p3].Initiate(); err != nil { // (3,1)
		t.Fatal(err)
	}
	w.deliver(w.send(p3, p4)) // P4 adopts (3,1)
	w.deliver(w.send(p4, p1)) // carries (3,1): P1's second mutable
	if w.envs[p1].mutableTaken != 2 {
		t.Fatalf("P1 mutable = %d, want 2", w.envs[p1].mutableTaken)
	}
	w.pump()
	if w.envs[p1].promoted != 1 {
		t.Fatalf("P1 promoted = %d, want 1", w.envs[p1].promoted)
	}
	if w.envs[p2].tentativeTaken != 1 {
		t.Errorf("P2 tentative = %d, want 1: (3,1)'s request did not reach it", w.envs[p2].tentativeTaken)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionKeepsLaterSendsRequestable: P1 took a mutable for (0,1),
// sent m to P2, and joined (3,1), which moved its csn again, before the
// promotion. old_csn must become the csn m carries, not the later one:
// P2's next instance, whose tentative records m, asks P1 with that csn,
// and P1 must take part rather than decline on a checkpoint that does
// not record sending m.
func TestPromotionKeepsLaterSendsRequestable(t *testing.T) {
	w := newWorld(t, 6)
	p0, p1, p2, p3, p4, p5 := 0, 1, 2, 3, 4, 5
	trig01 := protocol.Trigger{Pid: p0, Inum: 1}

	w.deliver(w.send(p1, p0))                        // (0,1) will depend on P1; P1 has sent
	w.deliver(w.send(p5, p3))                        // (3,1) will depend on P5
	if err := w.engines[p0].Initiate(); err != nil { // (0,1)
		t.Fatal(err)
	}
	w.deliver(w.send(p0, p4))                        // P4 adopts (0,1)
	w.deliver(w.send(p4, p1))                        // carries (0,1): P1 takes a mutable
	w.deliver(w.send(p1, p2))                        // m: P2 adopts (0,1)
	if err := w.engines[p3].Initiate(); err != nil { // (3,1)
		t.Fatal(err)
	}
	w.deliver(w.send(p3, p1)) // carries (3,1): P1 joins it
	// (0,1) runs to its end; P1's mutable is promoted.
	for w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind != protocol.KindComputation && m.Trigger == trig01
	}) != nil {
	}
	if w.envs[p1].promoted != 1 || w.envs[p0].doneCount != 1 {
		t.Fatalf("P1 promoted = %d, (0,1) done = %d, want 1 and 1", w.envs[p1].promoted, w.envs[p0].doneCount)
	}
	if err := w.engines[p2].Initiate(); err != nil { // depends on P1 through m
		t.Fatal(err)
	}
	w.pump()
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestFig2ZDependency replays the Fig. 2 scenario that motivates the
// impossibility result: the z-dependency created by m4 means P2 receives a
// request it could not have predicted when it processed m5. The mutable
// checkpoint taken before processing m5 resolves the dilemma.
func TestFig2ZDependency(t *testing.T) {
	w := newWorld(t, 5) // P1=0, P2=1, P3=2, P4=3, P5=4
	p1, p2, p3, p4, p5 := 0, 1, 2, 3, 4
	_ = p3

	// Dependencies: P1 depends on P4 (m: P4->P1); P5 depends on P2 (m3:
	// P2->P5); P4 depends on P5 via m4 (m4: P5->P4).
	w.deliver(w.send(p4, p1))
	w.deliver(w.send(p2, p5)) // m3
	w.deliver(w.send(p5, p4)) // m4: the z-dependency

	// P1 initiates C1,1.
	if err := w.engines[p1].Initiate(); err != nil {
		t.Fatal(err)
	}
	// Request reaches P4; P4 checkpoints and requests P5.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == p4
	}); m == nil {
		t.Fatal("no request to P4")
	}
	// P5, before its request arrives, sends m5 to P2.
	m5 := w.send(p5, p2)
	// Deliver P5's request now: P5 checkpoints (m5's send is after, fine)
	// and requests P2 (dependency m3).
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == p5
	}); m == nil {
		t.Fatal("no request to P5")
	}
	if w.envs[p5].tentativeTaken != 1 {
		t.Fatal("P5 did not checkpoint")
	}
	// m5 (sent before P5's checkpoint? No: sent after PrepareSend happened
	// before the request, so m5 carries csn prior to P5's checkpoint) —
	// wait: m5 was prepared before P5 checkpointed, so its csn is the old
	// one and P2 processes it without any protective action. The critical
	// case is a message sent AFTER the checkpoint, so send another:
	w.deliver(m5)
	m5b := w.send(p5, p2) // sent after P5's checkpoint, inside cp_state
	// P2 has sent this interval (m3 above) and receives m5b before its
	// request: mutable checkpoint required.
	w.deliver(m5b)
	if w.envs[p2].mutableTaken != 1 {
		t.Fatalf("P2 mutable = %d, want 1 (protects against the z-dependency)", w.envs[p2].mutableTaken)
	}

	// Now the request from P5 reaches P2 and promotes the mutable
	// checkpoint; everything commits consistently.
	w.pump()
	if w.envs[p1].doneCount != 1 || !w.envs[p1].lastCommitted {
		t.Fatal("P1's instance did not commit")
	}
	if w.envs[p2].promoted != 1 {
		t.Fatalf("P2 promoted = %d, want 1", w.envs[p2].promoted)
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatalf("z-dependency produced an orphan: %v", err)
	}
	// m5b's receive must not be in P2's permanent checkpoint.
	if got := w.envs[p2].stable.Permanent().State.RecvFrom[p5]; got != 1 {
		t.Fatalf("P2's permanent records %d receives from P5, want 1 (m5 only, not m5b)", got)
	}
}

// TestLemma1AtMostOneInheritedRequest sends duplicate requests for one
// instance at a process and checks it contributes exactly one checkpoint.
func TestLemma1AtMostOneInheritedRequest(t *testing.T) {
	w := newWorld(t, 4)
	// P3 depends on P0; P1 and P2 also depend on P0, so P0 receives
	// requests from several parents.
	w.deliver(w.send(0, 1))
	w.deliver(w.send(0, 2))
	w.deliver(w.send(0, 3))
	w.deliver(w.send(1, 3))
	w.deliver(w.send(2, 3))
	if err := w.engines[3].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.envs[3].doneCount != 1 {
		t.Fatal("instance did not commit")
	}
	for i := 0; i < 3; i++ {
		if got := w.envs[i].tentativeTaken; got > 1 {
			t.Fatalf("P%d took %d tentative checkpoints, Lemma 1 allows 1", i, got)
		}
	}
	if w.envs[0].tentativeTaken != 1 {
		t.Fatal("P0 never checkpointed despite three dependents")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestCommitClearsStateForNextInstance runs two back-to-back instances
// from different initiators and checks csn bookkeeping carries over.
func TestCommitClearsStateForNextInstance(t *testing.T) {
	w := newWorld(t, 3)
	w.deliver(w.send(1, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.engines[0].InProgress() || w.engines[1].InProgress() {
		t.Fatal("cp_state stuck after commit")
	}
	// Second instance from P2 with fresh traffic.
	w.deliver(w.send(0, 2))
	if err := w.engines[2].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.envs[2].doneCount != 1 {
		t.Fatal("second instance did not commit")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
	if got := w.envs[0].tentativeTaken; got != 2 {
		t.Fatalf("P0 tentative total = %d, want 2 (one per instance)", got)
	}
}

// TestFastPathAfterCommit: a computation message carrying the old
// instance's trigger that arrives after the commit must not trigger any
// checkpoint (csn fast path).
func TestFastPathAfterCommit(t *testing.T) {
	w := newWorld(t, 3)
	w.deliver(w.send(1, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P1 inherits and, still inside cp_state, sends m to P2.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 1
	}); m == nil {
		t.Fatal("no request to P1")
	}
	w.deliver(w.send(1, 2)) // P2 hears nothing else yet... deliver later
	late := w.send(1, 2)    // carries trigger of P0's instance
	w.pumpSystem()          // replies + commit reach everyone, incl. P2
	before := w.envs[2].mutableTaken + w.envs[2].tentativeTaken
	w.deliver(late)
	after := w.envs[2].mutableTaken + w.envs[2].tentativeTaken
	if before != after {
		t.Fatal("post-commit message triggered a checkpoint despite the csn fast path")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestAbortRestoresState exercises §3.6: the initiator aborts; tentative
// and mutable checkpoints are discarded and R/sent restored.
func TestAbortRestoresState(t *testing.T) {
	w := newWorld(t, 3)
	w.deliver(w.send(1, 0)) // P0 depends on P1
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P1 inherits.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 1
	}); m == nil {
		t.Fatal("no request to P1")
	}
	if w.envs[1].tentativeTaken != 1 {
		t.Fatal("P1 did not checkpoint")
	}
	// Initiator aborts (e.g. a participant failed).
	if err := w.engines[0].AbortCurrent(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.envs[0].doneCount != 1 || w.envs[0].lastCommitted {
		t.Fatal("abort not reported")
	}
	// Both tentatives dropped; permanents still the initial ones.
	for i := 0; i < 2; i++ {
		if got := w.envs[i].stable.Permanent().State.CSN; got != 0 {
			t.Fatalf("P%d permanent csn = %d after abort, want 0", i, got)
		}
		if len(w.envs[i].stable.TentativeTriggers()) != 0 {
			t.Fatalf("P%d keeps a tentative after abort", i)
		}
	}
	// P0's dependency on P1 must be restored so the retry requests P1.
	if !w.engines[0].DependencyVector()[1] {
		t.Fatal("R[1] not restored at initiator after abort")
	}
	// Retry succeeds.
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if !w.envs[0].lastCommitted {
		t.Fatal("retry did not commit")
	}
	if w.envs[1].stable.Permanent().State.CSN == 0 {
		t.Fatal("P1 not in the retried instance despite restored dependency")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestAbortDiscardsMutable: a mutable checkpoint taken for an aborted
// instance is discarded with R/sent restored.
func TestAbortDiscardsMutable(t *testing.T) {
	w := newWorld(t, 3)
	w.deliver(w.send(1, 0)) // P0 depends on P1 (instance stays open)
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P2 sent this interval, then receives a triggered message from P0.
	w.deliver(w.send(2, 1))
	w.deliver(w.send(0, 2))
	if w.envs[2].mutableTaken != 1 {
		t.Fatal("P2 did not take a mutable checkpoint")
	}
	if err := w.engines[0].AbortCurrent(); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if w.envs[2].discarded != 1 {
		t.Fatal("P2's mutable checkpoint not discarded on abort")
	}
	if !w.engines[2].Sent() {
		t.Fatal("P2's sent flag not restored")
	}
}

// TestDuplicateInitiateRejected: Initiate while in progress errors.
func TestDuplicateInitiateRejected(t *testing.T) {
	w := newWorld(t, 2)
	w.deliver(w.send(1, 0))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	if err := w.engines[0].Initiate(); err == nil {
		t.Fatal("second Initiate accepted while in progress")
	}
	w.pump()
}

var _ = protocol.NoTrigger
