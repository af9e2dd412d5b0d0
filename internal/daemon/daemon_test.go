package daemon_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"mutablecp/internal/daemon"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/stable"
)

// TestMain makes this test binary re-exec-able as an mcpd daemon: the
// e2e test spawns real OS processes without needing a built binary.
func TestMain(m *testing.M) {
	if daemon.MaybeChild() {
		return
	}
	os.Exit(m.Run())
}

// newClusterConfig is a loopback cluster of n nodes with stores in the
// test's temp dir and the given §3.6 request timeout.
func newClusterConfig(t testing.TB, n int, reqTimeout time.Duration) *daemon.Config {
	t.Helper()
	cfg, err := daemon.LoopbackConfig(n, filepath.Join(t.TempDir(), "stores"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.RequestTimeoutMS = int(reqTimeout / time.Millisecond)
	return cfg
}

// TestStartOrderIndependence is the readiness-barrier test: daemons come
// up one at a time, in an order unrelated to their IDs, with real gaps
// between starts — and the readiness barrier still converges because each
// daemon keeps dialing the peers that are not up yet.
func TestStartOrderIndependence(t *testing.T) {
	cfg := newClusterConfig(t, 3, 2*time.Second)
	order := []int{2, 0, 1}
	daemons := make([]*daemon.Daemon, 3)
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	}()
	for _, id := range order {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
		time.Sleep(50 * time.Millisecond) // real gap: later daemons truly absent
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// quiesce fails the test unless the cluster goes quiet within timeout.
func quiesce(t testing.TB, cfg *daemon.Config, timeout time.Duration) {
	t.Helper()
	if err := daemon.WaitQuiescent(cfg, timeout); err != nil {
		t.Fatal(err)
	}
}

func ctlClient(t testing.TB, cfg *daemon.Config, id int) *daemon.Client {
	t.Helper()
	nc, ok := cfg.Node(id)
	if !ok {
		t.Fatalf("no node %d", id)
	}
	cl, err := daemon.Dial(nc.CtlAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() }) //nolint:errcheck
	return cl
}

// crossTraffic pushes a ring of application messages through the cluster.
func crossTraffic(t testing.TB, cfg *daemon.Config, rounds int) {
	t.Helper()
	n := cfg.N()
	for _, nc := range cfg.Nodes {
		cl, err := daemon.Dial(nc.CtlAddr)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			if err := cl.Send((nc.ID+1)%n, []byte(fmt.Sprintf("m%d", r))); err != nil {
				t.Fatalf("send from P%d: %v", nc.ID, err)
			}
		}
		cl.Close() //nolint:errcheck
	}
}

// TestCluster16ProcSmoke brings up a 16-daemon cluster in one process —
// the shape the CI race smoke runs, so every cross-goroutine edge of
// the daemon (engine loop, per-peer writers, control plane) is exercised
// at the bench matrix's next scale tier.
// Commits from both ends of the ID range must land, and the cluster
// must audit a consistent line while all 16 engines share the runtime.
func TestCluster16ProcSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("16-daemon cluster; skipped in -short")
	}
	const n = 16
	cfg := newClusterConfig(t, n, 5*time.Second)
	cfg.NoSync = true // the smoke targets the pipeline, not the disk
	daemons := make([]*daemon.Daemon, n)
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	}()
	for id := 0; id < n; id++ {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
	}
	if err := daemon.WaitClusterReady(cfg, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	crossTraffic(t, cfg, 2)
	quiesce(t, cfg, 20*time.Second)
	for _, init := range []int{0, n - 1} {
		if committed, err := ctlClient(t, cfg, init).Checkpoint(0); err != nil {
			t.Fatalf("checkpoint from P%d: %v", init, err)
		} else if !committed {
			t.Fatalf("checkpoint from P%d aborted on a healthy cluster", init)
		}
		quiesce(t, cfg, 20*time.Second)
	}
	if _, err := daemon.AuditLine(cfg); err != nil {
		t.Fatalf("live audit: %v", err)
	}
}

// TestClusterE2E is the tentpole's acceptance test with real OS
// processes: spawn a 3-daemon cluster by re-exec, converge the readiness
// barrier, drive traffic and a committed checkpoint through the control
// plane, kill one daemon mid-protocol, restart it, run the cluster-wide
// recovery, and assert the recovery line audits clean both over RPC and
// from the on-disk stores.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process cluster test; skipped in -short")
	}
	cfg := newClusterConfig(t, 3, 1500*time.Millisecond)
	cfgPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := daemon.WriteConfig(cfgPath, cfg); err != nil {
		t.Fatal(err)
	}

	procs := make(map[int]*exec.Cmd)
	startNode := func(id int) {
		t.Helper()
		cmd := daemon.ChildCommand(cfgPath, id)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn P%d: %v", id, err)
		}
		procs[id] = cmd
	}
	defer func() {
		for id, cmd := range procs {
			if cmd.ProcessState == nil {
				cmd.Process.Kill() //nolint:errcheck
				cmd.Wait()         //nolint:errcheck
				t.Logf("P%d killed at teardown", id)
			}
		}
	}()

	// Deliberately not ID order: the readiness barrier absorbs it.
	for _, id := range []int{1, 2, 0} {
		startNode(id)
	}
	if err := daemon.WaitClusterReady(cfg, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Round 1: traffic, then a checkpoint that must commit.
	crossTraffic(t, cfg, 5)
	quiesce(t, cfg, 10*time.Second)
	if committed, err := ctlClient(t, cfg, 0).Checkpoint(0); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	} else if !committed {
		t.Fatal("checkpoint 1 aborted on a healthy cluster")
	}
	// The initiator reports committed as soon as it decides; participants
	// make their tentatives permanent when the commit broadcast reaches
	// them. Quiesce before auditing so the line is fully persisted.
	quiesce(t, cfg, 10*time.Second)
	if _, err := daemon.AuditLine(cfg); err != nil {
		t.Fatalf("live audit after commit: %v", err)
	}

	// Round 2: more traffic, then kill P1 as a checkpoint instance is in
	// flight. The initiator's §3.6 timeout aborts (or the instance wins
	// the race and commits); either way the control call must return.
	crossTraffic(t, cfg, 3)
	quiesce(t, cfg, 10*time.Second)
	nc0, _ := cfg.Node(0)
	resultCh := make(chan bool, 1)
	errCh := make(chan error, 1)
	go func() {
		cl, err := daemon.Dial(nc0.CtlAddr)
		if err != nil {
			errCh <- err
			return
		}
		defer cl.Close() //nolint:errcheck
		committed, err := cl.Checkpoint(0)
		if err != nil {
			errCh <- err
			return
		}
		resultCh <- committed
	}()
	// Kill once the initiation is on the wire: the initiator reports the
	// instance in progress, or it has already ended.
	status := ctlClient(t, cfg, 0)
	waitFor(t, func() bool {
		st, err := status.Status()
		return err == nil && st.InProgress || len(resultCh)+len(errCh) > 0
	}, func() string { return "the checkpoint at P0 never showed in progress" })
	victim := procs[1]
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() //nolint:errcheck
	select {
	case committed := <-resultCh:
		t.Logf("instance with P1 killed mid-protocol: committed=%v", committed)
	case err := <-errCh:
		t.Logf("instance with P1 killed mid-protocol: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("checkpoint call wedged by the kill: §3.6 timeout did not fire")
	}

	// Restart the victim: it recovers its store, drops any stale
	// tentative, and rejoins under a fresh incarnation.
	startNode(1)
	if err := daemon.WaitClusterReady(cfg, 20*time.Second); err != nil {
		t.Fatalf("cluster after restart: %v", err)
	}
	quiesce(t, cfg, 10*time.Second)

	// Cluster-wide recovery: every daemon rolls back to the newest
	// permanent line, and the live audit must come back clean.
	if err := daemon.RollbackCluster(cfg); err != nil {
		t.Fatal(err)
	}
	states, err := daemon.AuditLine(cfg)
	if err != nil {
		t.Fatalf("post-recovery audit: %v (line %v)", err, states)
	}

	// The recovered cluster keeps working: traffic and a fresh commit.
	crossTraffic(t, cfg, 4)
	quiesce(t, cfg, 10*time.Second)
	if committed, err := ctlClient(t, cfg, 2).Checkpoint(0); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	} else if !committed {
		t.Fatal("post-recovery checkpoint aborted")
	}
	quiesce(t, cfg, 10*time.Second) // let the commit broadcast persist everywhere
	if _, err := daemon.AuditLine(cfg); err != nil {
		t.Fatalf("live audit after recovery commit: %v", err)
	}

	// Graceful shutdown, then the on-disk audit: the stores the daemons
	// left behind must reconstruct a consistent recovery line.
	if err := daemon.ShutdownCluster(cfg); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for id, cmd := range procs {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("P%d exited with %v", id, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("P%d did not exit after shutdown", id)
		}
	}
	line, err := recovery.OpenLine(cfg.StoreRoot, cfg.N(), stable.Options{})
	if err != nil {
		t.Fatalf("on-disk audit: %v", err)
	}
	for id, rec := range line.Checkpoints {
		if rec.State.CSN < 1 {
			t.Errorf("P%d permanent checkpoint still at csn %d after two commits", id, rec.State.CSN)
		}
	}
}

// TestStaleRequestTimeoutSparesNextInstance: a §3.6 timer that fires as
// its instance ends (Stop loses the race, its body stays queued) must not
// abort the initiator's next instance. P0's second instance waits on the
// stopped P1 when the first instance's timer body runs.
func TestStaleRequestTimeoutSparesNextInstance(t *testing.T) {
	for _, algo := range daemon.DaemonAlgorithms {
		t.Run(algo, func(t *testing.T) { testStaleRequestTimeout(t, algo) })
	}
}

func testStaleRequestTimeout(t *testing.T, algo string) {
	cfg := newClusterConfig(t, 2, 30*time.Second) // no real timeout mid-test
	cfg.Algorithm = algo
	daemons := make([]*daemon.Daemon, 2)
	t.Cleanup(func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	})
	for id := range daemons {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p0 := daemons[0]
	if committed, err := p0.Checkpoint(10 * time.Second); err != nil || !committed {
		t.Fatalf("first instance: committed=%v err=%v", committed, err)
	}
	first, _, err := p0.Initiating()
	if err != nil {
		t.Fatal(err)
	}
	// P0 comes to depend on P1, which then stops: the next instance's
	// request to P1 goes unanswered.
	if err := daemons[1].SendApp(0, []byte("m")); err != nil {
		t.Fatal(err)
	}
	quiesce(t, cfg, 10*time.Second)
	daemons[1].Stop()
	daemons[1] = nil
	verdict := make(chan bool, 1)
	go func() {
		committed, _ := p0.Checkpoint(20 * time.Second)
		verdict <- committed
	}()
	var next protocol.Trigger
	waitFor(t, func() bool {
		trig, open, err := p0.Initiating()
		next = trig
		return err == nil && open && trig != first
	}, func() string { return "P0's second instance never opened" })

	if err := p0.RequestTimeout(first); err != nil {
		t.Fatal(err)
	}
	if trig, open, err := p0.Initiating(); err != nil || !open || trig != next {
		t.Fatalf("after the first instance's timeout P0 initiates %v (open=%v, %v), want %v still open", trig, open, err, next)
	}
	// The second instance's own timer does abort it.
	if err := p0.RequestTimeout(next); err != nil {
		t.Fatal(err)
	}
	if <-verdict {
		t.Fatal("the second instance committed without P1")
	}
}
