package simrt_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
)

// TestAuditLeaksLiveInitiatorWhileAnotherIsDown: a process being down
// exempts only the instances it initiated. A tentative left behind by a
// live initiator's instance is still a leak.
func TestAuditLeaksLiveInitiatorWhileAnotherIsDown(t *testing.T) {
	c := newManualCluster(t, 3)
	c.Proc(2).Fail()
	st := c.Proc(1).Stable()
	if err := st.SaveTentative(c.Proc(1).CaptureState(), protocol.Trigger{Pid: 2, Inum: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.AuditLeaks(); err != nil {
		t.Fatalf("tentative of a down initiator's instance reported: %v", err)
	}
	live := protocol.Trigger{Pid: 0, Inum: 1}
	if err := st.SaveTentative(c.Proc(1).CaptureState(), live, 0); err != nil {
		t.Fatal(err)
	}
	err := c.AuditLeaks()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%+v", live)) {
		t.Fatalf("leak of live initiator's %+v not reported: %v", live, err)
	}
}

// TestAuditLinesDownParticipantTentativeJoinsLine: a participant that
// saved its tentative and then fail-stopped never hears the commit, but
// the MSS holds its tentative and commits it on its behalf. The line the
// instance committed is orphan-free only with that tentative in it.
func TestAuditLinesDownParticipantTentativeJoinsLine(t *testing.T) {
	c := newManualCluster(t, 3)
	c.SendApp(2, 1, nil) // P1 depends on P2
	c.Run(time.Second)
	if !c.Proc(1).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	// P2 dies in the event that saves its tentative and sends its reply:
	// the reply still reaches P1, the commit never reaches P2.
	for len(c.Proc(2).Stable().TentativeTriggers()) == 0 {
		if !c.Sim().Step() {
			t.Fatal("P2 never took its tentative checkpoint")
		}
	}
	c.Proc(2).Fail()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if recs := c.Metrics().Completed(); len(recs) != 1 || !recs[0].Committed {
		t.Fatalf("want one committed instance, got %+v", recs)
	}
	if err := consistency.Check(c.PermanentLine()); err == nil {
		t.Fatal("the permanents alone are consistent; the test no longer isolates the down participant's tentative")
	}
	committed, aborted, err := c.AuditLines()
	if err != nil {
		t.Fatal(err)
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("committed=%d aborted=%d, want 1/0", committed, aborted)
	}
	if err := c.AuditLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditLinesNamesCommittingTrigger: an orphan forged onto a committed
// line is reported, and the report names the trigger that committed it.
func TestAuditLinesNamesCommittingTrigger(t *testing.T) {
	c := newManualCluster(t, 3)
	c.SendApp(1, 0, nil)
	c.Run(time.Second)
	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := c.Metrics().Completed()
	if len(recs) != 1 || !recs[0].Committed {
		t.Fatalf("want one committed instance, got %+v", recs)
	}
	trig := recs[0].Trigger
	if _, _, err := c.AuditLines(); err != nil {
		t.Fatalf("honest run: %v", err)
	}

	// P2 was not in the instance; forge it a permanent for the trigger that
	// records five receives from P0, which never sent it anything.
	forged := c.Proc(2).CaptureState()
	forged.RecvFrom = []uint64{5}
	st := c.Proc(2).Stable()
	if err := st.SaveTentative(forged, trig, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.MakePermanent(trig, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.AuditLines()
	var inc *consistency.InconsistencyError
	if !errors.As(err, &inc) {
		t.Fatalf("forged orphan not reported as an inconsistency: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%+v", trig)) {
		t.Fatalf("report does not name committing trigger %+v: %v", trig, err)
	}
}
