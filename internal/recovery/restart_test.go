package recovery_test

// End-to-end MSS restart: a checkpointing run writes through the durable
// internal/stable backend, the support station's storage is killed and
// reopened from disk, and the reconstructed recovery line must be the
// same consistent line the live cluster would have used.

import (
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
	"mutablecp/internal/stable"
)

func TestMSSRestartRecoversLineFromDisk(t *testing.T) {
	root := t.TempDir()
	const n = 6
	opts := stable.Options{Keep: 1}
	c, err := simrt.New(simrt.Config{
		N:                   n,
		Seed:                7,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		NewStore: func(pid protocol.ProcessID, nn int) (checkpoint.Store, error) {
			return stable.Open(stable.ProcDir(root, pid), pid, nn, opts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &simrt.PointToPoint{Rate: 0.1}
	gen.Install(c)
	c.Start()
	if err := c.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	c.StopTimers()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if errs := c.Errors(); len(errs) != 0 {
		t.Fatalf("cluster errors: %v", errs)
	}
	live := c.PermanentLine()
	if live[0].CSN == 0 {
		t.Fatal("no checkpoint rounds committed; the test exercises nothing")
	}

	// The MSS storage layer crashes and restarts: stores close and reopen
	// from disk. Every permanent checkpoint must come back.
	if err := c.RestartStores(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		perm := c.Proc(i).Stable().Permanent().State
		if perm.CSN != live[i].CSN {
			t.Fatalf("P%d: permanent CSN %d after store restart, want %d", i, perm.CSN, live[i].CSN)
		}
	}

	// Full restart: reconstruct the recovery line straight from the
	// directory, as a recovery manager would after losing everything
	// volatile. OpenLine validates consistency (orphan-freedom) itself.
	line, err := recovery.OpenLine(root, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := line.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := line.Checkpoints[i].State
		if got.CSN != live[i].CSN {
			t.Fatalf("P%d: on-disk line CSN %d, want %d", i, got.CSN, live[i].CSN)
		}
		for j := 0; j < n; j++ {
			if protocol.CounterAt(got.SentTo, j) != protocol.CounterAt(live[i].SentTo, j) ||
				protocol.CounterAt(got.RecvFrom, j) != protocol.CounterAt(live[i].RecvFrom, j) {
				t.Fatalf("P%d: on-disk checkpoint counters differ from live line", i)
			}
		}
	}
}
