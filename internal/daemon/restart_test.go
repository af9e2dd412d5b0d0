package daemon_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"mutablecp/internal/daemon"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
)

// metricsOf fetches one daemon's counters over a fresh control connection.
func metricsOf(t testing.TB, cfg *daemon.Config, id int) daemon.Metrics {
	t.Helper()
	nc, _ := cfg.Node(id)
	cl, err := daemon.Dial(nc.CtlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	m, err := cl.Metrics()
	if err != nil {
		t.Fatalf("metrics P%d: %v", id, err)
	}
	return m
}

// waitFor polls cond every millisecond and fails the test with what()
// when it has not held within ten seconds.
func waitFor(t testing.TB, cond func() bool, what func() string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
	}
}

// TestRestartedPeerIsRedialedAtOnce pins the connection-lifecycle rule: a
// hello from a restarted peer makes every survivor drop its socket to the
// dead incarnation and dial the new one, so traffic in both directions
// flows the moment the newcomer is ready — with no frame lost to the old
// socket, hence nothing for the retransmit timer to repair. The timers
// are stopped for the whole test, so a frame that arrives was carried by
// that path; before the rule, the survivors' first writes went to the
// dead socket and this test hangs on the undelivered frames.
func TestRestartedPeerIsRedialedAtOnce(t *testing.T) {
	const n, victim = 3, 1
	cfg := newClusterConfig(t, n, 2*time.Second)
	daemons := make([]*daemon.Daemon, n)
	boot := func(id int) {
		t.Helper()
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		d.StopRetransmitTimers()
		daemons[id] = d
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	for id := range daemons {
		boot(id)
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	send := func(from, to int) {
		t.Helper()
		if err := daemons[from].SendApp(protocol.ProcessID(to), []byte("m")); err != nil {
			t.Fatalf("send P%d->P%d: %v", from, to, err)
		}
	}
	// Every link carries a frame, so each survivor's socket to the victim
	// is an established one when the victim dies.
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				send(from, to)
			}
		}
	}
	quiesce(t, cfg, 10*time.Second)

	daemons[victim].Stop()
	// One frame is left unacked across the restart: sent to the dead
	// incarnation, it must reach the new one exactly once.
	send(0, victim)
	waitFor(t, func() bool { return metricsOf(t, cfg, 0).Backlog[victim] == 1 },
		func() string { return "P0's frame to the stopped victim never reached its outbox" })
	before := map[int]daemon.SessionMetrics{}
	for _, id := range []int{0, 2} {
		before[id] = metricsOf(t, cfg, id).Sessions[victim]
	}

	boot(victim)
	for deadline := time.Now().Add(10 * time.Second); !daemons[victim].Ready(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("restarted victim never became ready")
		}
	}
	// The moment it is ready: both directions, every pair with the victim.
	send(0, victim)
	send(2, victim)
	send(victim, 0)
	send(victim, 2)
	// Fails here if a survivor wrote to its socket to the dead incarnation:
	// with no retransmit timer that frame is never acknowledged.
	quiesce(t, cfg, 10*time.Second)

	for id := range daemons {
		for peer, sm := range metricsOf(t, cfg, id).Sessions {
			if sm.Retransmissions != 0 || sm.DupsSuppressed != 0 {
				t.Errorf("P%d session with P%d: retx=%d dups=%d, want 0 and 0",
					id, peer, sm.Retransmissions, sm.DupsSuppressed)
			}
		}
	}
	for _, id := range []int{0, 2} {
		after := metricsOf(t, cfg, id).Sessions[victim]
		if got := after.Connects - before[id].Connects; got != 1 {
			t.Errorf("survivor P%d dialed the restarted peer %d times, want exactly 1", id, got)
		}
		if got := after.Reopened - before[id].Reopened; got != 1 {
			t.Errorf("survivor P%d reopened its outbox %d times, want exactly 1", id, got)
		}
	}
	// Exactly-once, at the engine: the victim restarted from csn 0 with
	// zeroed counters, so a checkpoint there records what it delivered
	// since — two frames from P0 (the one held across the restart and the
	// one sent at ready), one from P2.
	if committed, err := daemons[victim].Checkpoint(10 * time.Second); err != nil || !committed {
		t.Fatalf("checkpoint at the restarted peer: committed=%v err=%v", committed, err)
	}
	st, err := daemons[victim].PermanentState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.RecvFrom) != n || st.RecvFrom[0] != 2 || st.RecvFrom[2] != 1 {
		t.Fatalf("restarted peer delivered %v per sender, want [2 0 1]: the frame held across the restart was lost or delivered twice", st.RecvFrom)
	}
}

// TestKilledConnectionLosesNothing: a data connection killed under
// traffic is redialed at the next write, and the ARQ channel replays what
// the dead socket swallowed, so every message arrives exactly once. Then
// the reverse link, which carries the acks and the reply, is killed, and
// a checkpoint commits across it with a consistent line.
func TestKilledConnectionLosesNothing(t *testing.T) {
	const n, k = 3, 50
	cfg := newClusterConfig(t, n, 5*time.Second)
	cfg.NoSync = true // the test is about sockets, not the disk
	daemons := make([]*daemon.Daemon, n)
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	}()
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
	send := func() {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := daemons[0].SendApp(1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	connects := func(from, to int) uint64 { return metricsOf(t, cfg, from).Sessions[to].Connects }
	before01, before10 := connects(0, 1), connects(1, 0)
	send()
	daemons[0].KillLink(1) // mid-stream: frames in flight die with the socket
	send()
	quiesce(t, cfg, 10*time.Second)
	daemons[1].KillLink(0)
	if committed, err := daemons[1].Checkpoint(10 * time.Second); err != nil || !committed {
		t.Fatalf("checkpoint across the killed link: committed=%v err=%v", committed, err)
	}
	quiesce(t, cfg, 10*time.Second)
	line, err := daemon.AuditLine(cfg)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if got := line[1].RecvFrom[0]; got != 2*k {
		t.Fatalf("P1 delivered %d of P0's %d messages", got, 2*k)
	}
	if connects(0, 1) == before01 || connects(1, 0) == before10 {
		t.Fatal("a killed link carried traffic without redialing: the kill missed")
	}
}

// TestServedConnectionsAreForgotten: the daemon tracks an accepted
// connection only while it is being served. A readiness poll opens a
// fresh control connection per probe and a peer restart a fresh data
// connection, so anything left behind grows for the daemon's lifetime.
func TestServedConnectionsAreForgotten(t *testing.T) {
	cfg := newClusterConfig(t, 2, 2*time.Second)
	d, err := daemon.New(cfg, 0) // P1 is never started: no peer connects
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	for i := 0; i < 50; i++ {
		cl, err := daemon.Dial(d.CtlAddr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Status(); err != nil {
			t.Fatal(err)
		}
		cl.Close() //nolint:errcheck
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close() //nolint:errcheck // a peer that goes away before its hello
	}
	waitFor(t, func() bool { return d.OpenConns() == 0 },
		func() string { return "connections still tracked after every client closed" })
}

// TestRestartReplaysBoundedLog: the discard rule bounds what a restart
// replays. After 300 commits the log holds one snapshot plus the records
// of the commits since the last compaction, not all 600 records ever
// written — also when the daemon restarts more often than it compacts,
// as restart4's victims do.
func TestRestartReplaysBoundedLog(t *testing.T) {
	const commits, restartEvery = 300, 40
	cfg := newClusterConfig(t, 2, 5*time.Second)
	cfg.NoSync = true // the test counts records, not fsyncs
	daemons := make([]*daemon.Daemon, 2)
	boot := func(id int) {
		t.Helper()
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	boot(0)
	boot(1)
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= commits; i++ {
		if committed, err := daemons[0].Checkpoint(10 * time.Second); err != nil || !committed {
			t.Fatalf("commit %d: committed=%v err=%v", i, committed, err)
		}
		if i%restartEvery == 0 || i == commits {
			daemons[0].Stop()
			boot(0)
		}
	}
	if n := metricsOf(t, cfg, 0).Store.ReplayedRecords; n > 150 {
		t.Errorf("restart replayed %d records after %d commits, want at most 150", n, commits)
	}
	if segs := daemons[0].StoreSegments(); len(segs) > 2 {
		t.Errorf("log has %d segments, want at most 2: %v", len(segs), segs)
	}
	if st, err := daemons[0].PermanentState(); err != nil || st.CSN != commits {
		t.Fatalf("restart restored csn %d (%v), want %d", st.CSN, err, commits)
	}
}

// TestRestartDoesNotReuseTrigger: a crash left own instance 5 undecided
// over a permanent checkpoint at csn 4. The restart drops it, which is
// its abort, so the next instance is 6: were it 5 again, "did (P0, 5)
// commit?" would name two instances with opposite answers.
func TestRestartDoesNotReuseTrigger(t *testing.T) {
	cfg := newClusterConfig(t, 2, 2*time.Second)
	stale := protocol.Trigger{Pid: 0, Inum: 5}
	seedLog(t, cfg, 0, func(st *stable.Store) {
		commitAt(t, st, protocol.Trigger{Pid: 0, Inum: 4}, 4)
		tentativeAt(t, st, stale, 5)
	})
	for id := 0; id < 2; id++ {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		defer d.Stop()
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cl := ctlClient(t, cfg, 0)
	if committed, err := cl.Checkpoint(0); err != nil || !committed {
		t.Fatalf("checkpoint: committed=%v err=%v", committed, err)
	}
	st, err := cl.Line()
	if err != nil {
		t.Fatal(err)
	}
	if st.CSN == stale.Inum {
		t.Fatalf("the restarted initiator reused trigger %+v", stale)
	}
	for trig, want := range map[protocol.Trigger]daemon.Outcome{
		stale:                  daemon.OutcomeAborted,
		{Pid: 0, Inum: st.CSN}: daemon.OutcomeCommitted,
	} {
		if out, err := cl.Resolve(trig); err != nil || out != want {
			t.Errorf("resolve %+v: %v (%v), want %v", trig, out, err, want)
		}
	}
}
