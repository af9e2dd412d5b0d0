package daemon_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/daemon"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
)

// seedStore writes a daemon's on-disk store as a crash would leave it:
// instance {0,1} committed everywhere, and instance {0,2} either
// committed (the initiator P0, or a survivor that processed the commit
// broadcast) or left tentative (the victim, which persisted and acked the
// tentative but died before the commit reached it).
func seedStore(t *testing.T, cfg *daemon.Config, id int, secondCommitted bool) {
	t.Helper()
	seedLog(t, cfg, id, func(st *stable.Store) {
		commitAt(t, st, protocol.Trigger{Pid: 0, Inum: 1}, 1)
		if secondCommitted {
			commitAt(t, st, protocol.Trigger{Pid: 0, Inum: 2}, 2)
		} else {
			tentativeAt(t, st, protocol.Trigger{Pid: 0, Inum: 2}, 2)
		}
	})
}

// startSeeded boots the cluster survivors-first (so the victim's in-doubt
// resolution finds live peers to ask) and returns the victim's permanent
// CSN after its restart recovery.
func startSeeded(t *testing.T, cfg *daemon.Config) int {
	t.Helper()
	var daemons []*daemon.Daemon
	t.Cleanup(func() {
		for _, d := range daemons {
			d.Stop()
		}
	})
	for _, id := range []int{0, 2, 1} {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons = append(daemons, d)
	}
	if err := daemon.WaitClusterReady(cfg, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := ctlClient(t, cfg, 1).Line()
	if err != nil {
		t.Fatalf("P1 line: %v", err)
	}
	return st.CSN
}

// TestRestartPromotesInDoubtTentative pins the 2PC in-doubt resolution a
// restarting daemon runs before dropping a tentative: its crash left a
// tentative checkpoint of an instance its initiator committed, so
// dropping it would strand the daemon one line behind a committed
// instance (the recovery audit would then reject the mixed line). The
// restart must ask the initiator and promote.
func TestRestartPromotesInDoubtTentative(t *testing.T) {
	cfg := newClusterConfig(t, 3, 2*time.Second)
	seedStore(t, cfg, 0, true)  // survivor: {0,2} committed
	seedStore(t, cfg, 2, true)  // survivor: {0,2} committed
	seedStore(t, cfg, 1, false) // victim: {0,2} still tentative

	if csn := startSeeded(t, cfg); csn != 2 {
		t.Fatalf("victim restarted on csn %d; want the in-doubt tentative promoted to 2", csn)
	}
}

// TestRestartDropsAbortedTentative is the abort complement: the
// initiator's store never decided the tentative's instance, so it answers
// aborted, and the restarting daemon must drop it and stay on its last
// committed line.
func TestRestartDropsAbortedTentative(t *testing.T) {
	cfg := newClusterConfig(t, 3, 2*time.Second)
	seedTwo := func(id int) {
		t.Helper()
		seedLog(t, cfg, id, func(st *stable.Store) { commitAt(t, st, protocol.Trigger{Pid: 0, Inum: 1}, 1) })
	}
	seedTwo(0)
	seedTwo(2)
	seedStore(t, cfg, 1, false) // victim: tentative {0,2}, which no peer committed

	if csn := startSeeded(t, cfg); csn != 1 {
		t.Fatalf("victim restarted on csn %d; want the aborted tentative dropped (csn 1)", csn)
	}
}

// seedLog opens id's store with the daemon's options, lets seed write to
// it, and closes it: the log a crash would leave behind.
func seedLog(t *testing.T, cfg *daemon.Config, id int, seed func(st *stable.Store)) {
	t.Helper()
	dir := cfg.StoreDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := stable.Open(dir, protocol.ProcessID(id), cfg.N(), cfg.StoreOptions())
	if err != nil {
		t.Fatalf("seed P%d: %v", id, err)
	}
	seed(st)
	if err := st.Close(); err != nil {
		t.Fatalf("seed P%d: %v", id, err)
	}
}

// tentativeAt saves a tentative checkpoint for trig at csn.
func tentativeAt(t *testing.T, st *stable.Store, trig protocol.Trigger, csn int) {
	t.Helper()
	if err := st.SaveTentative(protocol.State{CSN: csn}, trig, 0); err != nil {
		t.Fatalf("tentative %+v: %v", trig, err)
	}
}

// commitAt saves and commits a checkpoint for trig at csn.
func commitAt(t *testing.T, st *stable.Store, trig protocol.Trigger, csn int) {
	t.Helper()
	tentativeAt(t, st, trig, csn)
	if err := st.MakePermanent(trig, 0); err != nil {
		t.Fatalf("commit %+v: %v", trig, err)
	}
}

// storeBytes reads every file of a store directory.
func storeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestInDoubtWithUnreachableInitiator: a tentative whose initiator does
// not answer stays in doubt. Presuming abort would be wrong whenever the
// initiator committed, so New fails with ErrInDoubt naming the trigger
// and leaves the log byte for byte as it found it; once the initiator is
// up, the same store boots.
func TestInDoubtWithUnreachableInitiator(t *testing.T) {
	cfg := newClusterConfig(t, 2, 20*time.Millisecond) // asks for 2 × 20 ms
	trig := protocol.Trigger{Pid: 0, Inum: 1}
	seedLog(t, cfg, 1, func(st *stable.Store) { tentativeAt(t, st, trig, 1) })
	before := storeBytes(t, cfg.StoreDir(1))

	d, err := daemon.New(cfg, 1)
	if err == nil {
		d.Stop()
		t.Fatal("New settled a tentative whose initiator never answered")
	}
	var inDoubt *daemon.ErrInDoubt
	if !errors.As(err, &inDoubt) || inDoubt.Trigger != trig {
		t.Fatalf("New: %v, want *ErrInDoubt for %+v", err, trig)
	}
	if after := storeBytes(t, cfg.StoreDir(1)); !reflect.DeepEqual(after, before) {
		t.Fatal("a failed boot changed the stable log")
	}

	// P0 never durably started instance 1, so it answers aborted.
	p0, err := daemon.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Stop()
	p1, err := daemon.New(cfg, 1)
	if err != nil {
		t.Fatalf("boot with the initiator up: %v", err)
	}
	defer p1.Stop()
	if st, err := p1.PermanentState(); err != nil || st.CSN != 0 {
		t.Fatalf("P1 restored csn %d (%v), want the aborted tentative dropped", st.CSN, err)
	}
}

// TestMutualInDoubtColdStart: two daemons each hold a tentative of the
// other's committed instance and start together. Each answers resolve
// from its store while it is still booting, so neither waits on the
// other and both promote.
func TestMutualInDoubtColdStart(t *testing.T) {
	cfg := newClusterConfig(t, 2, 2*time.Second)
	for id := 0; id < 2; id++ {
		own := protocol.Trigger{Pid: id, Inum: 1}
		other := protocol.Trigger{Pid: 1 - id, Inum: 1}
		seedLog(t, cfg, id, func(st *stable.Store) {
			commitAt(t, st, own, 1)
			tentativeAt(t, st, other, 2)
		})
	}
	type booted struct {
		d   *daemon.Daemon
		err error
	}
	results := make(chan booted, 2)
	for id := 0; id < 2; id++ {
		go func() {
			d, err := daemon.New(cfg, id)
			results <- booted{d, err}
		}()
	}
	for i := 0; i < 2; i++ {
		b := <-results
		if b.err != nil {
			t.Fatalf("cold start: %v", b.err)
		}
		defer b.d.Stop()
		if st, err := b.d.PermanentState(); err != nil || st.CSN != 2 {
			t.Fatalf("P%d restored csn %d (%v), want 2: the peer's committed instance promoted", b.d.ID(), st.CSN, err)
		}
	}
}

// TestResolveWaitsForPendingInitiator: a daemon restarts holding the
// tentative of an instance its initiator is still deciding. The
// initiator answers pending, and the restart waits instead of presuming
// abort; when the instance commits, the tentative is promoted. It runs on
// every engine mcpd accepts.
func TestResolveWaitsForPendingInitiator(t *testing.T) {
	for _, algo := range daemon.DaemonAlgorithms {
		t.Run(algo, func(t *testing.T) { testResolveWaitsForPendingInitiator(t, algo) })
	}
}

func testResolveWaitsForPendingInitiator(t *testing.T, algo string) {
	cfg := newClusterConfig(t, 3, 30*time.Second) // no §3.6 abort mid-test
	cfg.Algorithm = algo
	daemons := make([]*daemon.Daemon, 3)
	t.Cleanup(func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	})
	boot := func(id int) {
		t.Helper()
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
	}
	for id := range daemons {
		boot(id)
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// P0 comes to depend on P1 and P2. P2 checkpoints its send first, so
	// it can restart from its permanent without orphaning the message.
	for _, from := range []int{1, 2} {
		if err := daemons[from].SendApp(0, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, cfg, 10*time.Second)
	if committed, err := daemons[2].Checkpoint(10 * time.Second); err != nil || !committed {
		t.Fatalf("P2 checkpoint: committed=%v err=%v", committed, err)
	}
	quiesce(t, cfg, 10*time.Second)

	// P2 goes down, so P0's instance waits for its reply; P1 takes its
	// tentative, replies, and goes down holding it.
	daemons[2].Stop()
	daemons[2] = nil
	replies := metricsOf(t, cfg, 0).Sessions[1].AcksSent
	verdict := make(chan bool, 1)
	go func() {
		committed, err := daemons[0].Checkpoint(60 * time.Second)
		if err != nil {
			t.Errorf("P0 checkpoint: %v", err)
		}
		verdict <- committed
	}()
	waitFor(t, func() bool { return metricsOf(t, cfg, 0).Sessions[1].AcksSent > replies },
		func() string { return "P1's reply never reached P0" })
	p1 := daemons[1]
	daemons[1] = nil
	p1.Stop()

	restarted := make(chan *daemon.Daemon, 1)
	go func() {
		d, err := daemon.New(cfg, 1)
		if err != nil {
			t.Errorf("restart P1: %v", err)
		}
		restarted <- d
	}()
	// P1 is booting (its control plane answers, not ready) and P0 is
	// still deciding: P1 cannot have settled its tentative yet.
	waitFor(t, func() bool {
		cl, err := daemon.Dial(cfg.Nodes[1].CtlAddr)
		if err != nil {
			return false
		}
		defer cl.Close() //nolint:errcheck
		st, err := cl.Status()
		return err == nil && !st.Ready
	}, func() string { return "restarting P1 never answered status" })
	trig := protocol.Trigger{Pid: 0, Inum: 1}
	if out, err := ctlClient(t, cfg, 0).Resolve(trig); err != nil || out != daemon.OutcomePending {
		t.Fatalf("P0 resolves its undecided %+v as %v (%v), want pending", trig, out, err)
	}
	select {
	case <-restarted:
		t.Fatal("P1 finished booting while the initiator was still deciding its tentative")
	default:
	}

	boot(2) // P2 replies, P0 commits, and P1's next question is answered
	if !<-verdict {
		t.Fatal("P0's instance aborted")
	}
	daemons[1] = <-restarted
	if daemons[1] == nil {
		t.FailNow()
	}
	if st, err := daemons[1].PermanentState(); err != nil || st.CSN != 1 {
		t.Fatalf("P1 restored csn %d (%v), want its tentative promoted to 1", st.CSN, err)
	}
	if out, err := ctlClient(t, cfg, 0).Resolve(trig); err != nil || out != daemon.OutcomeCommitted {
		t.Fatalf("P0 resolves %+v as %v (%v), want committed", trig, out, err)
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	quiesce(t, cfg, 10*time.Second)
	if _, err := daemon.AuditLine(cfg); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestCommitFrameFollowsInitiatorRecord: the initiator announces a
// commit only once its own commit record is in its store, so no peer can
// hold a commit its initiator could answer as aborted. Every initiator
// initiates in turn, with dependencies, and every commit frame any of
// them hands to a peer is checked at that moment. A reply is checked the
// same way: a participant forced to checkpoint replies only once its
// store holds the tentative (§3.3: take the checkpoint, then reply).
func TestCommitFrameFollowsInitiatorRecord(t *testing.T) {
	for _, algo := range daemon.DaemonAlgorithms {
		t.Run(algo, func(t *testing.T) { testCommitFrameFollowsInitiatorRecord(t, algo) })
	}
}

func testCommitFrameFollowsInitiatorRecord(t *testing.T, algo string) {
	const n, rounds = 3, 6
	cfg := newClusterConfig(t, n, 5*time.Second)
	cfg.Algorithm = algo
	daemons := make([]*daemon.Daemon, n)
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	}()
	var mu sync.Mutex
	frames := make(map[protocol.Trigger]int)
	var early []protocol.Trigger
	var replies []daemon.FrameView // P1's replies to P0
	for id := range daemons {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		daemons[id] = d
		err = d.OnFrame(func(f daemon.FrameView) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case f.Kind == protocol.KindCommit && f.Trigger.Pid == id:
				frames[f.Trigger]++
				if !f.Committed {
					early = append(early, f.Trigger)
				}
			case f.Kind == protocol.KindReply && id == 1 && f.Trigger.Pid == 0:
				replies = append(replies, f)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := daemon.WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		init := r % n
		crossTraffic(t, cfg, 1)
		quiesce(t, cfg, 10*time.Second)
		if committed, err := daemons[init].Checkpoint(10 * time.Second); err != nil || !committed {
			t.Fatalf("round %d at P%d: committed=%v err=%v", r, init, committed, err)
		}
	}
	quiesce(t, cfg, 10*time.Second)
	// P0 depends on P1's send, so its next instance forces P1 to take a
	// tentative checkpoint, and P1's reply must follow that save.
	mu.Lock()
	replies = nil
	mu.Unlock()
	if err := daemons[1].SendApp(0, []byte("dep")); err != nil {
		t.Fatal(err)
	}
	quiesce(t, cfg, 10*time.Second)
	if committed, err := daemons[0].Checkpoint(10 * time.Second); err != nil || !committed {
		t.Fatalf("reply round at P0: committed=%v err=%v", committed, err)
	}
	quiesce(t, cfg, 10*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(replies) != 1 {
		t.Fatalf("P1 sent %d replies to P0's instance, want 1: %+v", len(replies), replies)
	}
	if !replies[0].Tentative {
		t.Fatalf("P1's reply for %+v left before its tentative checkpoint was in its store", replies[0].Trigger)
	}
	// The broadcast sends one frame per peer; the targeted variant sends
	// one per replier and per notify-set member, at least one either way.
	if len(frames) != rounds+1 {
		t.Fatalf("own commit frames for %d instances, want %d: %v", len(frames), rounds+1, frames)
	}
	for trig, got := range frames {
		if algo == algorithms.Mutable && got != n-1 {
			t.Fatalf("%+v: %d commit frames, want %d (one per peer)", trig, got, n-1)
		}
	}
	if len(early) > 0 {
		t.Fatalf("commit frames for %v left before the initiator's commit record", early)
	}
}
