package core_test

import (
	"testing"

	"mutablecp/internal/protocol"
)

// TestCommitLoggedBeforeAnnounced: the initiator's checkpoint is
// permanent in its store before the first frame announcing the commit is
// handed to its env, on each path that announces one. fakeEnv.announce
// fails the test on an early frame; the counts show the frames were there
// to check.
func TestCommitLoggedBeforeAnnounced(t *testing.T) {
	t.Run("broadcast", func(t *testing.T) {
		w := newWorld(t, 3)
		w.deliver(w.send(1, 0))
		if err := w.engines[0].Initiate(); err != nil {
			t.Fatal(err)
		}
		w.pump()
		wantAnnounced(t, w, 1)
	})
	t.Run("targeted", func(t *testing.T) {
		// P0 sends to P2 while inside its own instance, so its commit
		// goes to the replier P1 and is forwarded to P2 from P0's
		// notify set.
		w := newTargetedWorld(t, 3)
		w.deliver(w.send(1, 0))
		if err := w.engines[0].Initiate(); err != nil {
			t.Fatal(err)
		}
		w.deliver(w.send(0, 2))
		w.pump()
		wantAnnounced(t, w, 2)
	})
	t.Run("partial", func(t *testing.T) {
		// P2 and P3 both depend on P1, and the MR each got from P0 does
		// not cover P1, so P1 gets two requests. Its second reply, a
		// decline carrying no dependency vector, is lost: the instance
		// stays open with every participant's vector in hand, and the
		// strict partial commit excludes only the silent bystander P4.
		w := newWorld(t, 5)
		w.deliver(w.send(0, 1))
		w.deliver(w.send(1, 2))
		w.deliver(w.send(1, 3))
		w.deliver(w.send(2, 0))
		w.deliver(w.send(3, 0))
		if err := w.engines[0].Initiate(); err != nil {
			t.Fatal(err)
		}
		for w.deliverMatching(func(m *protocol.Message) bool {
			return m.Kind == protocol.KindRequest || (m.Kind == protocol.KindReply && !m.MR.IsZero())
		}) != nil {
		}
		if !w.engines[0].Initiating() {
			t.Fatal("instance closed before the lost reply")
		}
		if err := w.engines[0].AbortPartialStrict(4); err != nil {
			t.Fatal(err)
		}
		w.pumpSystem()
		if !w.envs[0].lastCommitted {
			t.Fatal("the initiator was excluded; want only P4 excluded")
		}
		wantAnnounced(t, w, 1)
	})
}

// wantAnnounced checks how many Send and Broadcast calls announced P0's
// commit, and that its store holds the commit.
func wantAnnounced(t *testing.T, w *world, calls int) {
	t.Helper()
	env := w.envs[0]
	if env.announced != calls {
		t.Fatalf("P0 announced its commit in %d calls, want %d", env.announced, calls)
	}
	if got := env.stable.Permanent().Trigger; got != w.engines[0].OwnTrigger() {
		t.Fatalf("P0's permanent checkpoint is %v, want its own instance %v", got, w.engines[0].OwnTrigger())
	}
}
