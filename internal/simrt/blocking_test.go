package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/algorithms/kootoueg"
	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

// TestBlockingRuntimePaths drives Koo–Toueg through the simulation
// runtime: BlockApp/UnblockApp, queued application sends flushed on
// unblock, and blocking-time metrics.
func TestBlockingRuntimePaths(t *testing.T) {
	c, err := simrt.New(simrt.Config{
		N:                3,
		Seed:             9,
		NewEngine:        func(env protocol.Env) protocol.Engine { return kootoueg.New(env) },
		SingleInitiation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SendApp(1, 0, nil)
	c.Run(time.Second)
	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	if !c.Proc(0).Blocked() {
		t.Fatal("Koo–Toueg initiator not blocked")
	}
	// A send from the blocked initiator queues until the decision.
	c.SendApp(0, 2, nil)
	before := c.Metrics().CompMsgs
	if before != 1 {
		t.Fatalf("blocked send transmitted (compMsgs=%d)", before)
	}
	c.Drain()
	if c.Proc(0).Blocked() {
		t.Fatal("still blocked after decision")
	}
	if c.Metrics().CompMsgs != 2 {
		t.Fatalf("queued send not flushed (compMsgs=%d)", c.Metrics().CompMsgs)
	}
	recs := c.Metrics().Completed()
	if len(recs) != 1 || recs[0].BlockedTime <= 0 {
		t.Fatalf("blocking time not recorded: %+v", recs)
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
	// Accessors.
	if c.Proc(0).Disconnected() {
		t.Fatal("spurious disconnect")
	}
	if c.Config().N != 3 {
		t.Fatal("Config accessor broken")
	}
	states := c.States()
	if len(states) != 3 || states[1].SentTo[0] != 1 {
		t.Fatalf("States snapshot wrong: %+v", states[1])
	}
}

// TestSkippedInitiationAccounting pins MaybeInitiate's two refusals: a
// process already inside an instance, and any process while another
// instance is in flight under SingleInitiation.
func TestSkippedInitiationAccounting(t *testing.T) {
	c, err := simrt.New(simrt.Config{
		N:                3,
		Seed:             10,
		NewEngine:        func(env protocol.Env) protocol.Engine { return core.New(env) },
		SingleInitiation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SendApp(1, 0, nil)
	c.Run(time.Second)
	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("first initiate failed")
	}
	// Second initiation while one is active: skipped.
	if c.Proc(2).MaybeInitiate() {
		t.Fatal("concurrent initiation allowed under SingleInitiation")
	}
	// Same process again: in-progress skip.
	if c.Proc(0).MaybeInitiate() {
		t.Fatal("re-initiation allowed")
	}
	// Once the instance ends the slot is free: P2 was refused for P0's
	// instance, not for a state of its own.
	c.Drain()
	if !c.Proc(2).MaybeInitiate() {
		t.Fatal("P2 still refused after P0's instance ended")
	}
	c.Drain()
}
