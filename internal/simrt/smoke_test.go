package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

func newCoreCluster(t *testing.T, seed uint64) *simrt.Cluster {
	t.Helper()
	c, err := simrt.New(simrt.Config{
		Seed:                seed,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	return c
}

// TestSmokeMutableCheckpointing runs the full paper configuration (N=16,
// shared 2 Mbps LAN, 900 s checkpoint intervals) for a few simulated hours
// and checks the system-wide invariants: the protocol reports no internal
// errors, initiations commit, and the recovery line formed by the latest
// permanent checkpoints is consistent (Theorem 1).
func TestSmokeMutableCheckpointing(t *testing.T) {
	c := newCoreCluster(t, 42)
	gen := &simrt.PointToPoint{Rate: 0.1}
	gen.Install(c)
	c.Start()
	if err := c.Run(4 * time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	gen.Stop()
	c.StopTimers()
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, err := range c.Errors() {
		t.Errorf("cluster error: %v", err)
	}
	done := c.Metrics().Completed()
	if len(done) < 10 {
		t.Fatalf("expected at least 10 completed initiations, got %d", len(done))
	}
	for _, rec := range done {
		if !rec.Committed {
			t.Errorf("initiation %+v did not commit", rec.Trigger)
		}
		if rec.Tentative < 1 {
			t.Errorf("initiation %+v wrote no stable checkpoints", rec.Trigger)
		}
		if rec.Duration() <= 0 && rec.Requests > 0 {
			// A dependency-free initiator legitimately commits at the
			// initiation instant; anything that sent requests must take time.
			t.Errorf("initiation %+v sent %d requests but has non-positive duration (tentative=%d)",
				rec.Trigger, rec.Requests, rec.Tentative)
		}
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatalf("recovery line inconsistent: %v", err)
	}
	t.Logf("initiations=%d compMsgs=%d sysMsgs=%d", len(done), c.Metrics().CompMsgs, c.Metrics().SysMsgs)
}
