package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

func newTimeoutCluster(t *testing.T, n int, partial bool) *simrt.Cluster {
	t.Helper()
	c, err := simrt.New(simrt.Config{
		N:                     n,
		Seed:                  5,
		NewEngine:             func(env protocol.Env) protocol.Engine { return core.New(env) },
		SingleInitiation:      true,
		RequestTimeout:        30 * time.Second,
		PartialAbortOnFailure: partial,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRequestTimeoutAbortsLostInstance: a participant crashes before
// replying; the weight never returns, the §3.6 timer fires, and the
// instance aborts cleanly without manual intervention.
func TestRequestTimeoutAbortsLostInstance(t *testing.T) {
	c := newTimeoutCluster(t, 4, false)
	c.SendApp(1, 0, nil)
	c.SendApp(2, 0, nil)
	c.Run(time.Second)

	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	c.Proc(1).Fail() // its reply is lost; the instance cannot gather weight 1
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().TimeoutAborts; got != 1 {
		t.Fatalf("TimeoutAborts = %d, want 1", got)
	}
	recs := c.Metrics().Completed()
	if len(recs) != 1 || recs[0].Committed {
		t.Fatalf("expected one aborted record, got %+v", recs)
	}
	if c.Metrics().Aborted() != 1 {
		t.Fatalf("Aborted() = %d, want 1", c.Metrics().Aborted())
	}
	for i := 0; i < c.N(); i++ {
		if got := len(c.Proc(i).Stable().History()); got != 1 {
			t.Fatalf("P%d has %d permanents after timeout abort, want 1", i, got)
		}
		if len(c.Proc(i).Stable().TentativeTriggers()) != 0 {
			t.Fatalf("P%d keeps a tentative after timeout abort", i)
		}
		if c.Proc(i).Mutable().Len() != 0 {
			t.Fatalf("P%d keeps a mutable checkpoint after timeout abort", i)
		}
	}
	if eng := c.Proc(0).Engine().(*core.Engine); eng.Initiating() {
		t.Fatal("initiator still accounts weight after the abort")
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Errors() {
		t.Errorf("cluster error: %v", e)
	}
	// The slot is free again: a dependency-free process can initiate and
	// commit immediately.
	if !c.Proc(3).MaybeInitiate() {
		t.Fatal("cluster still holds the aborted instance's initiation slot")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTimeoutPartialCommit: with PartialAbortOnFailure, the
// timeout resolves via Kim–Park — the replied, uncontaminated subtree
// commits; the initiator (which depends on the dead host) and every
// non-replier abort.
func TestRequestTimeoutPartialCommit(t *testing.T) {
	c := newTimeoutCluster(t, 4, true)
	c.SendApp(1, 0, nil) // P0 depends on P1 (will crash)
	c.SendApp(2, 0, nil) // P0 depends on P2 (healthy)
	c.Run(time.Second)

	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	c.Proc(1).Fail()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().TimeoutAborts; got != 1 {
		t.Fatalf("TimeoutAborts = %d, want 1", got)
	}
	// P2 replied and does not depend on the dead host: its checkpoint
	// commits. The initiator depends on P1 directly, so it is inside the
	// contaminated closure and rolls back.
	if got := len(c.Proc(2).Stable().History()); got != 2 {
		t.Fatalf("P2 has %d permanents, want 2 (partial commit)", got)
	}
	if got := len(c.Proc(0).Stable().History()); got != 1 {
		t.Fatalf("P0 has %d permanents, want 1 (contaminated)", got)
	}
	for i := 0; i < c.N(); i++ {
		if len(c.Proc(i).Stable().TentativeTriggers()) != 0 {
			t.Fatalf("P%d keeps a tentative", i)
		}
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Errors() {
		t.Errorf("cluster error: %v", e)
	}
}

// TestRequestTimeoutIsNoOpWhenInstanceTerminates: the timer must never
// fire an abort for an instance that committed on its own.
func TestRequestTimeoutIsNoOpWhenInstanceTerminates(t *testing.T) {
	c := newTimeoutCluster(t, 3, false)
	c.SendApp(1, 0, nil)
	c.Run(time.Second)
	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().TimeoutAborts; got != 0 {
		t.Fatalf("TimeoutAborts = %d, want 0", got)
	}
	recs := c.Metrics().Completed()
	if len(recs) != 1 || !recs[0].Committed {
		t.Fatalf("instance did not commit: %+v", recs)
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}

// TestFailedInitiatorReleasesSlot: under SingleInitiation, a crashed
// initiator must not hold the cluster-wide initiation slot forever.
func TestFailedInitiatorReleasesSlot(t *testing.T) {
	c := newTimeoutCluster(t, 3, false)
	c.SendApp(1, 0, nil) // dependency keeps the instance open
	c.Run(time.Second)
	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	c.Proc(0).Fail()
	if !c.Proc(2).MaybeInitiate() {
		t.Fatal("crashed initiator still owns the initiation slot")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}
