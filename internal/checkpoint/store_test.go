package checkpoint_test

import (
	"errors"
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
)

func state(proc, n int) protocol.State {
	return protocol.State{
		Proc:     proc,
		SentTo:   make([]uint64, n),
		RecvFrom: make([]uint64, n),
	}
}

func TestStableStoreInitialPermanent(t *testing.T) {
	st := checkpoint.NewStableStore(3)
	perm := st.Permanent()
	if perm.State.Proc != 3 || perm.State.CSN != 0 || perm.Status != checkpoint.StatusPermanent {
		t.Fatalf("initial permanent = %+v", perm)
	}
	if len(st.History()) != 1 {
		t.Fatalf("history = %d, want 1", len(st.History()))
	}
}

func TestTentativeLifecycle(t *testing.T) {
	st := checkpoint.NewStableStore(0)
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	s := state(0, 2)
	s.CSN = 1
	if err := st.SaveTentative(s, trig, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Tentative(trig); !ok {
		t.Fatal("tentative not found")
	}
	if len(st.TentativeTriggers()) != 1 {
		t.Fatalf("count = %d", len(st.TentativeTriggers()))
	}
	if err := st.MakePermanent(trig, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(st.TentativeTriggers()) != 0 {
		t.Fatal("tentative survived commit")
	}
	perm := st.Permanent()
	if perm.State.CSN != 1 || perm.SavedAt != 2*time.Second {
		t.Fatalf("permanent = %+v", perm)
	}
	if len(st.History()) != 2 {
		t.Fatalf("history = %d, want 2", len(st.History()))
	}
}

func TestDuplicateTentativeSameTrigger(t *testing.T) {
	st := checkpoint.NewStableStore(0)
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	if err := st.SaveTentative(state(0, 2), trig, 0); err != nil {
		t.Fatal(err)
	}
	err := st.SaveTentative(state(0, 2), trig, 0)
	if !errors.Is(err, checkpoint.ErrTentativePending) {
		t.Fatalf("err = %v, want ErrTentativePending", err)
	}
}

func TestConcurrentTentativesDifferentTriggers(t *testing.T) {
	st := checkpoint.NewStableStore(0)
	t1 := protocol.Trigger{Pid: 1, Inum: 1}
	t2 := protocol.Trigger{Pid: 2, Inum: 1}
	if err := st.SaveTentative(state(0, 2), t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveTentative(state(0, 2), t2, 0); err != nil {
		t.Fatalf("second trigger rejected: %v", err)
	}
	if len(st.TentativeTriggers()) != 2 {
		t.Fatalf("count = %d, want 2", len(st.TentativeTriggers()))
	}
	if err := st.DropTentative(t1); err != nil {
		t.Fatal(err)
	}
	if err := st.MakePermanent(t2, 0); err != nil {
		t.Fatal(err)
	}
	if len(st.TentativeTriggers()) != 0 {
		t.Fatal("leftover tentatives")
	}
}

func TestMakePermanentWithoutTentative(t *testing.T) {
	st := checkpoint.NewStableStore(0)
	err := st.MakePermanent(protocol.Trigger{Pid: 1, Inum: 1}, 0)
	if !errors.Is(err, checkpoint.ErrNoTentative) {
		t.Fatalf("err = %v, want ErrNoTentative", err)
	}
	if err := st.DropTentative(protocol.Trigger{Pid: 1, Inum: 1}); !errors.Is(err, checkpoint.ErrNoTentative) {
		t.Fatalf("drop err = %v, want ErrNoTentative", err)
	}
}

// TestStoreOwnsHandedState pins the Store contract: each save path keeps
// the counter slices it is handed instead of copying them, so a checkpoint
// costs the one copy CaptureState makes. Records read back share them.
func TestStoreOwnsHandedState(t *testing.T) {
	same := func(what string, got, want protocol.State) {
		t.Helper()
		if &got.SentTo[0] != &want.SentTo[0] || &got.RecvFrom[0] != &want.RecvFrom[0] {
			t.Errorf("%s: store copied the handed state", what)
		}
	}
	trig := protocol.Trigger{Pid: 1, Inum: 1}

	st := checkpoint.NewStableStore(0)
	tent := state(0, 2)
	if err := st.SaveTentative(tent, trig, 0); err != nil {
		t.Fatal(err)
	}
	rec, _ := st.Tentative(trig)
	same("SaveTentative", rec.State, tent)
	if err := st.MakePermanent(trig, 0); err != nil {
		t.Fatal(err)
	}
	same("MakePermanent", st.Permanent().State, tent)

	ms := checkpoint.NewMutableStore(0)
	mut := state(0, 2)
	if err := ms.Save(mut, trig, 0); err != nil {
		t.Fatal(err)
	}
	rec, _ = ms.Get(trig)
	same("MutableStore.Save", rec.State, mut)

	perm := []checkpoint.Record{{State: state(0, 2), Status: checkpoint.StatusPermanent}}
	pend := []checkpoint.Record{{State: state(0, 2), Trigger: trig, Status: checkpoint.StatusTentative}}
	rs, err := checkpoint.RestoreStableStore(0, perm, pend)
	if err != nil {
		t.Fatal(err)
	}
	same("RestoreStableStore permanent", rs.Permanent().State, perm[0].State)
	rec, _ = rs.Tentative(trig)
	same("RestoreStableStore tentative", rec.State, pend[0].State)
}

// TestGC: a retention bound set on a store that already holds a long
// history trims it to the newest permanents at the next commit, and a
// negative bound clamps to "keep everything".
func TestGC(t *testing.T) {
	st := checkpoint.NewStableStore(0)
	commit := func(i int) {
		t.Helper()
		trig := protocol.Trigger{Pid: 0, Inum: i}
		s := state(0, 2)
		s.CSN = i
		if err := st.SaveTentative(s, trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		commit(i)
	}
	if got := len(st.History()); got != 6 { // initial + 5, nothing retained away
		t.Fatalf("history without retention = %d, want 6", got)
	}
	st.SetRetain(2)
	commit(6)
	h := st.History()
	if len(h) != 2 || h[0].State.CSN != 5 || h[1].State.CSN != 6 {
		t.Fatalf("history after retained commit = %+v", h)
	}
	st.SetRetain(-1)
	commit(7)
	if got := len(st.History()); got != 3 {
		t.Fatalf("history after clamped retention = %d, want 3", got)
	}
	if st.Permanent().State.CSN != 7 {
		t.Fatal("retention dropped the newest permanent")
	}
}

// TestDiscardRuleOnCommit is the regression test for the paper's discard
// rule: with a retention bound set, committing a new permanent checkpoint
// garbage-collects the one it supersedes — the store must not accumulate
// dead permanents over a long run.
func TestDiscardRuleOnCommit(t *testing.T) {
	st := checkpoint.NewStableStore(0)
	st.SetRetain(1)
	for i := 1; i <= 5; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		s := state(0, 2)
		s.CSN = i
		if err := st.SaveTentative(s, trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
		if got := len(st.History()); got != 1 {
			t.Fatalf("after commit %d: history = %d, want 1 (superseded permanent not discarded)", i, got)
		}
		if st.Permanent().State.CSN != i {
			t.Fatalf("after commit %d: newest permanent has CSN %d", i, st.Permanent().State.CSN)
		}
	}
	// Retention must never discard pending tentatives.
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	if err := st.SaveTentative(state(0, 2), trig, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.MakePermanent(protocol.Trigger{Pid: 1, Inum: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if len(st.TentativeTriggers()) != 0 || len(st.History()) != 1 {
		t.Fatalf("tentatives = %d history = %d", len(st.TentativeTriggers()), len(st.History()))
	}
}

func TestRestoreStableStore(t *testing.T) {
	s1 := state(2, 3)
	s1.CSN = 4
	perm := []checkpoint.Record{{State: s1, Trigger: protocol.NoTrigger, Status: checkpoint.StatusPermanent}}
	tent := []checkpoint.Record{{
		State:   state(2, 3),
		Trigger: protocol.Trigger{Pid: 0, Inum: 5},
		Status:  checkpoint.StatusTentative,
		SavedAt: time.Second,
	}}
	st, err := checkpoint.RestoreStableStore(2, perm, tent)
	if err != nil {
		t.Fatal(err)
	}
	if st.Permanent().State.CSN != 4 || len(st.TentativeTriggers()) != 1 {
		t.Fatalf("restored store: %+v", st)
	}
	if err := st.MakePermanent(protocol.Trigger{Pid: 0, Inum: 5}, 2*time.Second); err != nil {
		t.Fatalf("restored tentative not committable: %v", err)
	}

	if _, err := checkpoint.RestoreStableStore(0, nil, nil); err == nil {
		t.Fatal("restore with empty permanent history accepted")
	}
	bad := []checkpoint.Record{{State: s1, Status: checkpoint.StatusTentative}}
	if _, err := checkpoint.RestoreStableStore(0, bad, nil); err == nil {
		t.Fatal("tentative record accepted in permanent history")
	}
	if _, err := checkpoint.RestoreStableStore(2, perm, append(tent, tent[0])); err == nil {
		t.Fatal("duplicate tentative accepted")
	}
}

func TestMutableStoreLifecycle(t *testing.T) {
	ms := checkpoint.NewMutableStore(1)
	t1 := protocol.Trigger{Pid: 2, Inum: 3}
	t2 := protocol.Trigger{Pid: 4, Inum: 1}
	if err := ms.Save(state(1, 2), t1, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ms.Save(state(1, 2), t2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if ms.Len() != 2 {
		t.Fatalf("len = %d", ms.Len())
	}
	if _, ok := ms.Get(t1); !ok {
		t.Fatal("Get missed stored record")
	}
	rec, err := ms.Take(t1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != checkpoint.StatusMutable || rec.SavedAt != time.Second {
		t.Fatalf("record = %+v", rec)
	}
	if _, err := ms.Take(t1); !errors.Is(err, checkpoint.ErrNoMutable) {
		t.Fatalf("double take err = %v", err)
	}
	ms.Clear()
	if ms.Len() != 0 {
		t.Fatal("clear left records")
	}
}

func TestMutableStoreDuplicate(t *testing.T) {
	ms := checkpoint.NewMutableStore(1)
	trig := protocol.Trigger{Pid: 2, Inum: 3}
	if err := ms.Save(state(1, 2), trig, 0); err != nil {
		t.Fatal(err)
	}
	if err := ms.Save(state(1, 2), trig, 0); !errors.Is(err, checkpoint.ErrDuplicateMutable) {
		t.Fatalf("err = %v, want ErrDuplicateMutable", err)
	}
}

func TestStatusString(t *testing.T) {
	if checkpoint.StatusTentative.String() != "tentative" ||
		checkpoint.StatusPermanent.String() != "permanent" ||
		checkpoint.StatusMutable.String() != "mutable" {
		t.Fatal("status names wrong")
	}
	if checkpoint.Status(0).String() != "status?" {
		t.Fatal("unknown status formatting")
	}
}
