package recovery_test

import (
	"errors"
	"testing"
	"time"

	"mutablecp/internal/algorithms/chandylamport"
	"mutablecp/internal/checkpoint"
	"mutablecp/internal/consistency"
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

// runCluster runs cfg as 8 processes with timed single initiations (of
// the mutable engine unless cfg names another) under point-to-point
// traffic at rate to the horizon, then stops the workload and the
// checkpoint timers and drains it.
func runCluster(t *testing.T, cfg simrt.Config, rate float64, horizon time.Duration) *simrt.Cluster {
	t.Helper()
	cfg.N = 8
	if cfg.NewEngine == nil {
		cfg.NewEngine = mutableEngine
	}
	cfg.ScheduleCheckpoints = true
	cfg.SingleInitiation = true
	c, err := simrt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := &simrt.PointToPoint{Rate: rate}
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
	c := runCluster(t, simrt.Config{Seed: 4}, 0.1, time.Hour)
	line, err := recovery.LatestLine(storesOf(c))
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

func TestValidateCatchesCorruptLine(t *testing.T) {
	stores := map[protocol.ProcessID]checkpoint.Store{
		0: checkpoint.NewStableStore(0),
		1: checkpoint.NewStableStore(1),
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
	if _, err := recovery.LatestLine(stores); err == nil {
		t.Fatal("corrupt line accepted")
	}
}

// TestGCKeepsRecoverability: the discard rule (each commit drops the
// permanent it supersedes) never discards the recovery line.
func TestGCKeepsRecoverability(t *testing.T) {
	retainOne := func(pid protocol.ProcessID, _ int) (checkpoint.Store, error) {
		st := checkpoint.NewStableStore(pid)
		st.SetRetain(1)
		return st, nil
	}
	c := runCluster(t, simrt.Config{Seed: 21, NewStore: retainOne}, 0.1, 2*time.Hour)
	for i := 0; i < c.N(); i++ {
		if h := c.Proc(i).Stable().History(); len(h) != 1 {
			t.Fatalf("P%d retains %d permanents, want 1", i, len(h))
		}
	}
	if c.Proc(0).Stable().Permanent().State.CSN == 0 {
		t.Fatal("no checkpoint rounds committed; the test exercises nothing")
	}
	if _, err := recovery.LatestLine(storesOf(c)); err != nil {
		t.Fatalf("line invalid under the discard rule: %v", err)
	}
}

// rollbackRun is a cluster that has been rolled back once by the
// executor: the report and the line the recovery restored, read from the
// stores inside the recovery event, and the line before the crash.
type rollbackRun struct {
	c      *simrt.Cluster
	rep    *recovery.Report
	line   *recovery.Line
	before *recovery.Line
}

// rollbackQuiesced runs an hour of cfg under runCluster, then crashes P3
// and recovers it by coordinated rollback while nothing else moves: the
// workload and timers are off and the network drained, so only the
// replay can change a channel counter. The restore is checked for
// orphans inside its event; the cluster is drained again afterwards.
func rollbackQuiesced(t *testing.T, cfg simrt.Config, rate float64) *rollbackRun {
	t.Helper()
	c := runCluster(t, cfg, rate, time.Hour)
	before, err := recovery.LatestLine(storesOf(c))
	if err != nil {
		t.Fatal(err)
	}
	x, err := recovery.NewExecutor(c, recovery.ModeRollback)
	if err != nil {
		t.Fatal(err)
	}
	r := &rollbackRun{c: c, before: before}
	at := c.Sim().Now() + time.Second
	plans := []simrt.CrashPlan{{Proc: 3, At: at, RestartAfter: 30 * time.Second}}
	err = c.InstallCrashes(plans, func(pid protocol.ProcessID) error {
		rep, err := x.Recover(pid)
		if err != nil {
			return err
		}
		r.rep = rep
		if r.line, err = recovery.LatestLine(storesOf(c)); err != nil {
			return err
		}
		return consistency.Check(c.States())
	})
	if err != nil {
		t.Fatal(err)
	}
	// MarkLive re-arms the checkpoint timers: stop them again before the
	// first one fires.
	if err := c.Run(at + time.Minute); err != nil {
		t.Fatal(err)
	}
	c.StopTimers()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Errors() {
		t.Fatalf("cluster error: %v", e)
	}
	if r.rep == nil {
		t.Fatal("recovery never ran")
	}
	return r
}

// TestInTransitAfterRollback: a coordinated rollback replays exactly the
// channel state the restored line implies — the report's Replayed is the
// line's in-transit total — and once the cluster drains every channel is
// caught up to the line's send counts. The run uses Chandy–Lamport, whose
// lines leave messages in transit on every seed; the mutable engine's
// lines at these rates almost never do.
func TestInTransitAfterRollback(t *testing.T) {
	chandyLamportEngine := func(env protocol.Env) protocol.Engine { return chandylamport.New(env) }
	r := rollbackQuiesced(t, simrt.Config{Seed: 13, NewEngine: chandyLamportEngine}, 1)
	states := r.line.States()
	transit, err := consistency.InTransit(states)
	if err != nil {
		t.Fatal(err)
	}
	var owed uint64
	for _, n := range transit {
		owed += n
	}
	if owed == 0 {
		t.Fatal("nothing in transit at the line; the test exercises nothing")
	}
	if r.rep.Replayed != owed {
		t.Fatalf("replayed %d messages, the line has %d in transit", r.rep.Replayed, owed)
	}
	live := r.c.States()
	for from := 0; from < r.c.N(); from++ {
		for to := 0; to < r.c.N(); to++ {
			sent := protocol.CounterAt(states[from].SentTo, to)
			if got := protocol.CounterAt(live[from].SentTo, to); got != sent {
				t.Fatalf("P%d->P%d: live sent %d, line sent %d", from, to, got, sent)
			}
			if got := protocol.CounterAt(live[to].RecvFrom, from); got != sent {
				t.Fatalf("P%d->P%d not caught up: received %d of %d (in transit at the line: %d)",
					from, to, got, sent, transit[[2]protocol.ProcessID{from, to}])
			}
		}
	}
}

// TestRestartFromLine: the rollback restores the newest permanent line
// as it stood before the crash, and the restored cluster keeps
// checkpointing consistently.
func TestRestartFromLine(t *testing.T) {
	r := rollbackQuiesced(t, simrt.Config{Seed: 55}, 0.1)
	if r.rep.PeersRolled != r.c.N()-1 {
		t.Fatalf("peers rolled = %d, want %d", r.rep.PeersRolled, r.c.N()-1)
	}
	for i := 0; i < r.c.N(); i++ {
		got, want := r.line.Checkpoints[i].State, r.before.Checkpoints[i].State
		if got.CSN != want.CSN {
			t.Fatalf("P%d restored csn %d, line before the crash has %d", i, got.CSN, want.CSN)
		}
		for j := 0; j < r.c.N(); j++ {
			if protocol.CounterAt(got.SentTo, j) != protocol.CounterAt(want.SentTo, j) ||
				protocol.CounterAt(got.RecvFrom, j) != protocol.CounterAt(want.RecvFrom, j) {
				t.Fatalf("P%d restored checkpoint differs from the line before the crash", i)
			}
		}
	}
	committed := len(r.c.Metrics().Completed())
	gen := &simrt.PointToPoint{Rate: 0.1}
	gen.Install(r.c)
	r.c.Start()
	if err := r.c.Run(r.c.Sim().Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	r.c.StopTimers()
	if err := r.c.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, e := range r.c.Errors() {
		t.Errorf("restored cluster error: %v", e)
	}
	if len(r.c.Metrics().Completed()) == committed {
		t.Fatal("restored cluster never checkpointed")
	}
	if err := consistency.Check(r.c.PermanentLine()); err != nil {
		t.Fatalf("recovery line after the restore inconsistent: %v", err)
	}
}

// TestRestartRejectsBadLine: the executor refuses to restore a line with
// an orphan — a checkpoint recording receives that no sender's
// checkpoint sent — and leaves the inconsistency on the cluster's errors.
func TestRestartRejectsBadLine(t *testing.T) {
	corrupt := func(pid protocol.ProcessID, _ int) (checkpoint.Store, error) {
		st := checkpoint.NewStableStore(pid)
		if pid == 1 {
			trig := protocol.Trigger{Pid: 1, Inum: 1}
			bad := protocol.State{Proc: 1, CSN: 1, RecvFrom: []uint64{5}}
			if err := st.SaveTentative(bad, trig, 0); err != nil {
				return nil, err
			}
			if err := st.MakePermanent(trig, 0); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	c, err := simrt.New(simrt.Config{N: 3, NewEngine: mutableEngine, NewStore: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	x, err := recovery.NewExecutor(c, recovery.ModeRollback)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Install([]simrt.CrashPlan{{Proc: 2, At: time.Second, RestartAfter: time.Second}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(x.Reports()) != 0 {
		t.Fatal("inconsistent line restored")
	}
	var ie *consistency.InconsistencyError
	if errs := c.Errors(); len(errs) != 1 || !errors.As(errs[0], &ie) {
		t.Fatalf("cluster errors = %v, want one inconsistency", errs)
	}
}
