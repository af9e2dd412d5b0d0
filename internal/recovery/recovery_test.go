package recovery_test

import (
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
)

func storesOf(c *simrt.Cluster) map[protocol.ProcessID]checkpoint.Store {
	out := make(map[protocol.ProcessID]checkpoint.Store, c.N())
	for i := 0; i < c.N(); i++ {
		out[i] = c.Proc(i).Stable()
	}
	return out
}

func runCluster(t *testing.T, seed uint64, horizon time.Duration) *simrt.Cluster {
	t.Helper()
	c, err := simrt.New(simrt.Config{
		N:                   8,
		Seed:                seed,
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
	if err := c.Run(horizon); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	c.StopTimers()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLatestLineIsConsistent(t *testing.T) {
	c := runCluster(t, 4, time.Hour)
	mgr := recovery.NewManager(storesOf(c))
	line, err := mgr.LatestLine()
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Checkpoints) != 8 {
		t.Fatalf("line has %d checkpoints", len(line.Checkpoints))
	}
	if err := line.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackCost(t *testing.T) {
	c := runCluster(t, 9, time.Hour)
	mgr := recovery.NewManager(storesOf(c))
	line, err := mgr.LatestLine()
	if err != nil {
		t.Fatal(err)
	}
	now := c.Sim().Now()
	cost := mgr.Cost(line, c.States(), now)
	if len(cost.LostTime) != 8 {
		t.Fatalf("lost time for %d processes", len(cost.LostTime))
	}
	for id, lost := range cost.LostTime {
		if lost < 0 || lost > now {
			t.Fatalf("P%d lost time %v out of range", id, lost)
		}
	}
	// Work after the last checkpoints is lost; with continuous traffic
	// some messages must be lost on rollback.
	if cost.TotalMsgs == 0 {
		t.Log("note: no messages sent since last checkpoints (possible but unlikely)")
	}
	if cost.TotalTime <= 0 {
		t.Fatal("zero total lost time despite running workload")
	}
}

func TestInTransitAfterRollback(t *testing.T) {
	c := runCluster(t, 13, time.Hour)
	mgr := recovery.NewManager(storesOf(c))
	line, err := mgr.LatestLine()
	if err != nil {
		t.Fatal(err)
	}
	transit, err := mgr.InTransit(line)
	if err != nil {
		t.Fatal(err)
	}
	// Every in-transit count must be reproducible from the raw states.
	states := line.States()
	for ch, n := range transit {
		want := protocol.CounterAt(states[ch[0]].SentTo, ch[1]) - protocol.CounterAt(states[ch[1]].RecvFrom, ch[0])
		if n != want {
			t.Fatalf("channel %v: %d, want %d", ch, n, want)
		}
	}
}

func TestValidateCatchesCorruptLine(t *testing.T) {
	stores := map[protocol.ProcessID]checkpoint.Store{
		0: checkpoint.NewStableStore(0, 2),
		1: checkpoint.NewStableStore(1, 2),
	}
	// Corrupt P1's checkpoint: it claims to have received a message P0's
	// checkpoint never sent.
	bad := protocol.State{
		Proc:     1,
		CSN:      1,
		SentTo:   make([]uint64, 2),
		RecvFrom: []uint64{5, 0},
	}
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	if err := stores[1].SaveTentative(bad, trig, 0); err != nil {
		t.Fatal(err)
	}
	if err := stores[1].MakePermanent(trig, 0); err != nil {
		t.Fatal(err)
	}
	mgr := recovery.NewManager(stores)
	if _, err := mgr.LatestLine(); err == nil {
		t.Fatal("corrupt line accepted")
	}
}

func TestGCKeepsRecoverability(t *testing.T) {
	c := runCluster(t, 21, 2*time.Hour)
	for i := 0; i < c.N(); i++ {
		c.Proc(i).Stable().GC(1)
	}
	mgr := recovery.NewManager(storesOf(c))
	line, err := mgr.LatestLine()
	if err != nil {
		t.Fatalf("line invalid after GC: %v", err)
	}
	if err := consistency.Check(line.States()); err != nil {
		t.Fatal(err)
	}
}

// TestRestartFromLine restores a fresh cluster from a recovery line:
// counters and stable stores resume from the line, in-transit messages
// replay, and the restarted system keeps checkpointing consistently.
func TestRestartFromLine(t *testing.T) {
	orig := runCluster(t, 55, time.Hour)
	mgr := recovery.NewManager(storesOf(orig))
	line, err := mgr.LatestLine()
	if err != nil {
		t.Fatal(err)
	}
	transit, err := mgr.InTransit(line)
	if err != nil {
		t.Fatal(err)
	}

	restarted, err := simrt.New(simrt.Config{
		N:                   8,
		Seed:                56,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		InitialLine:         line.States(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// After restart + replay, every channel is caught up: the live state
	// is consistent and in-transit deficits are zero.
	states := restarted.States()
	if err := consistency.Check(states); err != nil {
		t.Fatalf("restored state inconsistent: %v", err)
	}
	for ch := range transit {
		from, to := ch[0], ch[1]
		if protocol.CounterAt(states[from].SentTo, to) != protocol.CounterAt(states[to].RecvFrom, from) {
			t.Fatalf("channel %v not caught up after replay", ch)
		}
	}
	// The restored permanent line equals the original line.
	for i := 0; i < 8; i++ {
		perm := restarted.Proc(i).Stable().Permanent().State
		want := line.Checkpoints[i].State
		for j := 0; j < 8; j++ {
			if protocol.CounterAt(perm.SentTo, j) != protocol.CounterAt(want.SentTo, j) ||
				protocol.CounterAt(perm.RecvFrom, j) != protocol.CounterAt(want.RecvFrom, j) {
				t.Fatalf("P%d restored permanent differs from line", i)
			}
		}
	}
	// And the restarted system runs more checkpoint rounds correctly.
	gen := &simrt.PointToPoint{Rate: 0.1}
	gen.Install(restarted)
	restarted.Start()
	if err := restarted.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	restarted.StopTimers()
	if err := restarted.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, e := range restarted.Errors() {
		t.Errorf("restarted cluster error: %v", e)
	}
	if len(restarted.Metrics().Completed()) == 0 {
		t.Fatal("restarted cluster never checkpointed")
	}
	if err := consistency.Check(restarted.PermanentLine()); err != nil {
		t.Fatalf("restarted recovery line inconsistent: %v", err)
	}
}

// TestRestartRejectsBadLine: missing processes and inconsistent lines are
// rejected up front.
func TestRestartRejectsBadLine(t *testing.T) {
	good := protocol.State{SentTo: make([]uint64, 3), RecvFrom: make([]uint64, 3)}
	partial := map[protocol.ProcessID]protocol.State{0: good, 1: good}
	_, err := simrt.New(simrt.Config{
		N:           3,
		NewEngine:   func(env protocol.Env) protocol.Engine { return core.New(env) },
		InitialLine: partial,
	})
	if err == nil {
		t.Fatal("partial line accepted")
	}
	bad := map[protocol.ProcessID]protocol.State{}
	for i := 0; i < 3; i++ {
		st := protocol.State{Proc: i, SentTo: make([]uint64, 3), RecvFrom: make([]uint64, 3)}
		bad[i] = st
	}
	st := bad[1]
	st.RecvFrom[0] = 5 // orphan: P0 never sent
	bad[1] = st
	_, err = simrt.New(simrt.Config{
		N:           3,
		NewEngine:   func(env protocol.Env) protocol.Engine { return core.New(env) },
		InitialLine: bad,
	})
	if err == nil {
		t.Fatal("inconsistent line accepted")
	}
}
