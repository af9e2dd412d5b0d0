package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

// TestMetricsAttribution checks that per-initiation records attribute
// checkpoints, messages, and durations to the right trigger.
func TestMetricsAttribution(t *testing.T) {
	c := newManualCluster(t, 4)
	// Dependencies: P0 <- P1 <- P2.
	c.SendApp(2, 1, nil)
	c.SendApp(1, 0, nil)
	c.Run(time.Second)

	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	c.Drain()

	recs := c.Metrics().Completed()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if rec.Initiator != 0 {
		t.Fatalf("initiator = %d", rec.Initiator)
	}
	if rec.Tentative != 3 {
		t.Fatalf("tentative = %d, want 3 (P0, P1, P2)", rec.Tentative)
	}
	if rec.Requests < 2 {
		t.Fatalf("requests = %d, want >= 2", rec.Requests)
	}
	if rec.Replies < 2 {
		t.Fatalf("replies = %d, want >= 2", rec.Replies)
	}
	if rec.Commits != 1 {
		t.Fatalf("commits = %d, want 1 broadcast", rec.Commits)
	}
	if rec.SysMsgs != rec.Requests+rec.Replies+rec.Commits {
		t.Fatalf("sysmsgs %d != %d+%d+%d", rec.SysMsgs, rec.Requests, rec.Replies, rec.Commits)
	}
	if rec.SysBytes != rec.SysMsgs*50 {
		t.Fatalf("sysbytes = %d", rec.SysBytes)
	}
	if !rec.Committed || rec.Duration() <= 0 {
		t.Fatalf("committed=%v duration=%v", rec.Committed, rec.Duration())
	}
	// Lookup by trigger works.
	if _, ok := c.Metrics().Record(rec.Trigger); !ok {
		t.Fatal("Record lookup failed")
	}
	if _, ok := c.Metrics().Record(protocol.Trigger{Pid: 9, Inum: 9}); ok {
		t.Fatal("bogus trigger found")
	}
}

// TestMetricsGlobalTotals cross-checks the run-wide counters against the
// per-initiation records on a longer run.
func TestMetricsGlobalTotals(t *testing.T) {
	c, err := simrt.New(simrt.Config{
		N:                   8,
		Seed:                77,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &simrt.PointToPoint{Rate: 0.1}
	gen.Install(c)
	c.Start()
	c.Run(2 * time.Hour)
	gen.Stop()
	c.StopTimers()
	c.Drain()

	m := c.Metrics()
	var tent, mut, disc uint64
	for _, rec := range m.Initiations() {
		tent += uint64(rec.Tentative)
		mut += uint64(rec.Mutable)
		disc += uint64(rec.Discarded)
	}
	if tent != m.TotalTentative {
		t.Fatalf("per-record tentative %d != global %d", tent, m.TotalTentative)
	}
	if mut != m.TotalMutable {
		t.Fatalf("per-record mutable %d != global %d", mut, m.TotalMutable)
	}
	if disc != m.TotalDiscarded {
		t.Fatalf("per-record discarded %d != global %d", disc, m.TotalDiscarded)
	}
	// Promoted + discarded == taken (no mutable checkpoint unaccounted).
	var promoted uint64
	for _, rec := range m.Initiations() {
		promoted += uint64(rec.Promoted)
	}
	if promoted+disc != mut {
		t.Fatalf("promoted %d + discarded %d != taken %d", promoted, disc, mut)
	}
	// Permanent totals: every committed instance's tentatives became
	// permanent.
	if m.TotalPermanent != m.TotalTentative {
		t.Fatalf("permanent %d != tentative %d (all instances committed)",
			m.TotalPermanent, m.TotalTentative)
	}
	// Initiations are ordered by start time.
	recs := m.Initiations()
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatal("Initiations not sorted by start")
		}
	}
}
