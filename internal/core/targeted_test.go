package core_test

import (
	"testing"

	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/xrand"
)

// newTargetedWorld builds a world whose engines use the §3.3.5 targeted
// (update-approach) commit dissemination.
func newTargetedWorld(t *testing.T, n int) *world {
	t.Helper()
	w := &world{t: t, n: n}
	for i := 0; i < n; i++ {
		env := newFakeEnv(w, i, n)
		w.envs = append(w.envs, env)
		w.engines = append(w.engines, core.NewWithOptions(env, core.Options{
			Dissemination: core.CommitTargeted,
		}))
	}
	return w
}

// TestTargetedCommitReachesParticipantsOnly: uninvolved processes receive
// no commit traffic at all.
func TestTargetedCommitReachesParticipantsOnly(t *testing.T) {
	w := newTargetedWorld(t, 5)
	w.deliver(w.send(1, 0)) // P0 depends on P1; P2..P4 uninvolved
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	commitsTo := map[int]int{}
	for {
		var m *protocol.Message
		for _, q := range w.queue {
			m = q
			break
		}
		if m == nil {
			break
		}
		if m.Kind == protocol.KindCommit {
			commitsTo[m.To]++
		}
		w.deliver(m)
	}
	if commitsTo[1] != 1 {
		t.Fatalf("participant P1 got %d commits, want 1", commitsTo[1])
	}
	for _, p := range []int{2, 3, 4} {
		if commitsTo[p] != 0 {
			t.Fatalf("uninvolved P%d got %d commits (targeted mode must skip it)", p, commitsTo[p])
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestTargetedCommitForwardsToNotifySet: a participant that sent
// computation messages while inside the instance forwards the commit so
// the receiver clears cp_state and discards its mutable checkpoint.
func TestTargetedCommitForwardsToNotifySet(t *testing.T) {
	w := newTargetedWorld(t, 4)
	w.deliver(w.send(1, 0)) // P0 depends on P1
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	// P1 inherits the request.
	if m := w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 1
	}); m == nil {
		t.Fatal("no request to P1")
	}
	// P3 sends something first (condition 2), then P1 (inside cp_state)
	// sends to P3: P3 takes a mutable checkpoint and P1's notify set now
	// contains P3.
	w.deliver(w.send(3, 2))
	w.deliver(w.send(1, 3))
	if w.envs[3].mutableTaken != 1 {
		t.Fatal("P3 did not take a mutable checkpoint")
	}
	w.pump()
	if w.envs[0].doneCount != 1 || !w.envs[0].lastCommitted {
		t.Fatal("instance did not commit")
	}
	// The forwarded commit must have reached P3: mutable discarded,
	// cp_state cleared.
	if w.envs[3].discarded != 1 {
		t.Fatalf("P3 discarded = %d, want 1 (forwarded commit)", w.envs[3].discarded)
	}
	if w.engines[3].InProgress() {
		t.Fatal("P3's cp_state not cleared by the forwarded commit")
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestTargetedRandomizedConsistency is the Theorem 1 soak for the
// update-approach dissemination.
func TestTargetedRandomizedConsistency(t *testing.T) {
	rng := xrand.New(2024)
	w := newTargetedWorld(t, 6)
	for round := 0; round < 12; round++ {
		randomTraffic(w, rng, 10)
		init := rng.Intn(w.n)
		if w.engines[init].InProgress() {
			w.pump()
		}
		if err := w.engines[init].Initiate(); err != nil {
			w.pump()
			continue
		}
		w.pump()
		if w.envs[init].doneCount == 0 {
			t.Fatalf("round %d: no termination", round)
		}
		if err := consistency.Check(w.line()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < w.n; i++ {
			if w.envs[i].mutable.Len() != 0 {
				t.Fatalf("round %d: P%d still holds mutable checkpoints", round, i)
			}
		}
	}
}

// TestTargetedLateCommitNotForwardedAgain: a commit a process has
// handled is not forwarded a second time, however many commits came
// after it. P1 joins 1,025 instances of P0's and forwards each commit to
// P2; then, inside a further instance with P2 in its notify set, it
// receives a duplicate of the first commit. Its decided watermark
// already covers that commit, so it sends nothing.
func TestTargetedLateCommitNotForwardedAgain(t *testing.T) {
	w := newTargetedWorld(t, 3)
	round := func() {
		w.deliver(w.send(1, 0)) // P0 depends on P1
		if err := w.engines[0].Initiate(); err != nil {
			t.Fatal(err)
		}
		if w.deliverMatching(func(m *protocol.Message) bool {
			return m.Kind == protocol.KindRequest && m.To == 1
		}) == nil {
			t.Fatal("no request to P1")
		}
		w.deliver(w.send(1, 2)) // inside the instance: P2 joins P1's notify set
	}
	var first protocol.Message
	for k := 1; k <= 1025; k++ {
		round()
		if w.deliverMatching(func(m *protocol.Message) bool { return m.Kind == protocol.KindReply }) == nil {
			t.Fatalf("instance %d: no reply", k)
		}
		if m := w.deliverMatching(func(m *protocol.Message) bool {
			return m.Kind == protocol.KindCommit && m.To == 1
		}); m == nil {
			t.Fatalf("instance %d: no commit to P1", k)
		} else if k == 1 {
			first = *m
		}
		w.pump()
		if w.envs[0].doneCount != k || !w.envs[0].lastCommitted {
			t.Fatalf("instance %d did not commit", k)
		}
	}
	round()
	queued := len(w.queue)
	w.engines[1].HandleMessage(&first)
	for _, m := range w.queue[queued:] {
		t.Errorf("P1 sent %v for trigger %v to P%d on a commit it had handled", m.Kind, m.Trigger, m.To)
	}
	w.pump()
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}

// TestTargetedLateOlderCommitForwarded: a commit that reaches a process
// after a newer commit of the same initiator is still forwarded if the
// process is inside its instance. P2, a participant of P0's first
// instance, makes P1 take a mutable for it, and P1 makes P3 take one.
// P2's forward of the first commit is held while P1 joins, and sees
// commit, P0's second instance. When the first commit reaches P1 at
// last, only P1's forward tells P3 to discard its mutable.
func TestTargetedLateOlderCommitForwarded(t *testing.T) {
	w := newTargetedWorld(t, 5)
	w.deliver(w.send(2, 0)) // P0 depends on P2
	w.deliver(w.send(1, 4)) // P1 and P3 have sent since their last checkpoints
	w.deliver(w.send(3, 4))
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	first := w.engines[0].Inside()[0]
	if w.deliverMatching(func(m *protocol.Message) bool {
		return m.Kind == protocol.KindRequest && m.To == 2
	}) == nil {
		t.Fatal("no request to P2")
	}
	w.deliver(w.send(2, 1))
	w.deliver(w.send(1, 3))
	if w.envs[3].mutableTaken != 1 {
		t.Fatal("P3 did not take a mutable checkpoint")
	}
	held := func(m *protocol.Message) bool { return m.Kind == protocol.KindCommit && m.Trigger == first }
	deliverSystem := func() {
		for w.deliverMatching(func(m *protocol.Message) bool {
			return m.Kind != protocol.KindComputation && !(held(m) && m.To == 1)
		}) != nil {
		}
	}
	deliverSystem()
	w.deliver(w.send(1, 0)) // P0 depends on P1
	if err := w.engines[0].Initiate(); err != nil {
		t.Fatal(err)
	}
	deliverSystem()
	if w.envs[0].doneCount != 2 || !w.engines[1].InProgress() {
		t.Fatalf("P0 decided %d instances, P1 inside %v; want 2 and the first", w.envs[0].doneCount, w.engines[1].Inside())
	}
	w.pump()
	for i, e := range w.engines {
		if e.InProgress() || w.envs[i].mutable.Len() != 0 {
			t.Errorf("P%d still inside %v holding %d mutables", i, e.Inside(), w.envs[i].mutable.Len())
		}
	}
	if err := consistency.Check(w.line()); err != nil {
		t.Fatal(err)
	}
}
