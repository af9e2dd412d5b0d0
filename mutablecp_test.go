package mutablecp_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"mutablecp"
)

// newCluster starts a live cluster the test closes.
func newCluster(t *testing.T, opts mutablecp.LiveOptions) *mutablecp.LiveCluster {
	t.Helper()
	c, err := mutablecp.NewLiveCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// quiesce fails the test unless the cluster goes quiet within 10 s.
func quiesce(t *testing.T, c *mutablecp.LiveCluster) {
	t.Helper()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPublicLiveClusterRoundTrip(t *testing.T) {
	cluster := newCluster(t, mutablecp.LiveOptions{N: 4})
	for i := 0; i < 10; i++ {
		if err := cluster.Send(i%4, (i+1)%4, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, cluster)
	committed, err := cluster.Checkpoint(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("checkpoint aborted")
	}
	quiesce(t, cluster)
	line := cluster.RecoveryLine()
	if len(line) != 4 {
		t.Fatalf("line size %d", len(line))
	}
	if err := mutablecp.VerifyConsistent(line); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAlgorithmsListed(t *testing.T) {
	names := mutablecp.Algorithms()
	want := map[string]bool{
		mutablecp.AlgoMutable: true, mutablecp.AlgoKooToueg: true,
		mutablecp.AlgoElnozahy: true, mutablecp.AlgoChandyLamport: true,
	}
	found := 0
	for _, n := range names {
		if want[n] {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("registry missing algorithms: %v", names)
	}
}

func TestPublicExperiment(t *testing.T) {
	res, err := mutablecp.RunExperiment(mutablecp.ExperimentConfig{
		Algorithm: mutablecp.AlgoMutable,
		Rate:      0.05,
		Horizon:   3 * 900 * time.Second,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Initiations == 0 {
		t.Fatal("no initiations")
	}
	if !res.ConsistencyOK {
		t.Fatalf("inconsistent: %v", res.ConsistencyErr)
	}
}

// TestPublicLiveClusterWithBaseline: an engine the cluster daemon does
// not run is refused, and the targeted-commit variant, which it does,
// commits a consistent line.
func TestPublicLiveClusterWithBaseline(t *testing.T) {
	for _, algo := range []string{mutablecp.AlgoKooToueg, mutablecp.AlgoElnozahy, mutablecp.AlgoChandyLamport} {
		if c, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 3, Algorithm: algo}); err == nil {
			c.Close()
			t.Fatalf("%s accepted", algo)
		}
	}
	cluster := newCluster(t, mutablecp.LiveOptions{N: 3, Algorithm: mutablecp.AlgoMutableTargeted})
	if err := cluster.Send(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, cluster)
	committed, err := cluster.Checkpoint(0, 5*time.Second)
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	quiesce(t, cluster)
	if err := mutablecp.VerifyConsistent(cluster.RecoveryLine()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBadOptions(t *testing.T) {
	if c, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 1}); err == nil {
		c.Close()
		t.Fatal("N=1 accepted")
	}
	if c, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 3, Algorithm: "bogus"}); err == nil {
		c.Close()
		t.Fatal("bogus algorithm accepted")
	}
	cluster := newCluster(t, mutablecp.LiveOptions{N: 3})
	for _, p := range []mutablecp.ProcessID{-1, 3} {
		if _, err := cluster.Checkpoint(p, time.Second); err == nil {
			t.Fatalf("initiator %d accepted", p)
		}
	}
}

// TestLiveBadSendRejected: a send to itself, or from or to a process the
// cluster does not have, is refused.
func TestLiveBadSendRejected(t *testing.T) {
	cluster := newCluster(t, mutablecp.LiveOptions{N: 2})
	for _, ch := range [][2]mutablecp.ProcessID{{0, 0}, {0, 9}, {-1, 0}, {2, 0}} {
		if err := cluster.Send(ch[0], ch[1], nil); err == nil {
			t.Fatalf("send P%d->P%d accepted", ch[0], ch[1])
		}
	}
}

// TestLiveConfigValidation: options the cluster daemon refuses are
// refused before a daemon starts, and leave no store directory behind.
func TestLiveConfigValidation(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, opts := range []mutablecp.LiveOptions{
		{N: 0},
		{N: 1},
		{N: 3, Algorithm: mutablecp.AlgoKooToueg},
		{N: 3, Algorithm: "bogus"},
	} {
		if c, err := mutablecp.NewLiveCluster(opts); err == nil {
			c.Close()
			t.Fatalf("%+v accepted", opts)
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("refused clusters left %d entries in the temp dir: %v", len(left), left)
	}
}

// TestPublicTCPCluster: every live cluster crosses loopback TCP; a
// message sent over it lands in a committed, consistent line.
func TestPublicTCPCluster(t *testing.T) {
	cluster := newCluster(t, mutablecp.LiveOptions{N: 3})
	if err := cluster.Send(1, 0, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	quiesce(t, cluster)
	committed, err := cluster.Checkpoint(0, 10*time.Second)
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	quiesce(t, cluster)
	line := cluster.RecoveryLine()
	if got := line[0].RecvFrom[1]; got != 1 {
		t.Fatalf("P0's checkpoint records %d receives from P1, want 1", got)
	}
	if err := mutablecp.VerifyConsistent(line); err != nil {
		t.Fatal(err)
	}
}

// TestLiveCheckpointCommits: ring traffic makes every process depend on
// its predecessor, so one instance from P0 checkpoints all four, and the
// committed line counts every message on both of its ends.
func TestLiveCheckpointCommits(t *testing.T) {
	const n, k = 4, 20
	cluster := newCluster(t, mutablecp.LiveOptions{N: n})
	for i := 0; i < k; i++ {
		if err := cluster.Send(i%n, (i+1)%n, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, cluster)
	committed, err := cluster.Checkpoint(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("live checkpoint aborted")
	}
	quiesce(t, cluster)
	line := cluster.RecoveryLine()
	for p := 0; p < n; p++ {
		next, prev := (p+1)%n, (p+n-1)%n
		if sent, got := line[p].SentTo[next], line[p].RecvFrom[prev]; sent != k/n || got != k/n {
			t.Fatalf("P%d's checkpoint: %d sends to P%d, %d receives from P%d, want %d each", p, sent, next, got, prev, k/n)
		}
	}
	if err := mutablecp.VerifyConsistent(line); err != nil {
		t.Fatal(err)
	}
}

// TestLiveAllAlgorithms: every engine the cluster daemon runs commits a
// consistent line from a non-zero initiator.
func TestLiveAllAlgorithms(t *testing.T) {
	for _, algo := range []string{mutablecp.AlgoMutable, mutablecp.AlgoMutableTargeted} {
		t.Run(algo, func(t *testing.T) {
			cluster := newCluster(t, mutablecp.LiveOptions{N: 4, Algorithm: algo})
			for i := 0; i < 12; i++ {
				if err := cluster.Send(i%4, (i+1)%4, nil); err != nil {
					t.Fatal(err)
				}
			}
			quiesce(t, cluster)
			committed, err := cluster.Checkpoint(1, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !committed {
				t.Fatal("aborted")
			}
			quiesce(t, cluster)
			if err := mutablecp.VerifyConsistent(cluster.RecoveryLine()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLiveTransitiveDependencyRounds: P0 depends on P1 and P1 on P2, so
// each instance from P0 must reach P2 through P1, round after round.
func TestLiveTransitiveDependencyRounds(t *testing.T) {
	cluster := newCluster(t, mutablecp.LiveOptions{N: 3})
	for round := uint64(1); round <= 3; round++ {
		if err := cluster.Send(1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := cluster.Send(2, 1, nil); err != nil {
			t.Fatal(err)
		}
		quiesce(t, cluster)
		committed, err := cluster.Checkpoint(0, 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !committed {
			t.Fatalf("round %d aborted", round)
		}
		quiesce(t, cluster)
		line := cluster.RecoveryLine()
		if got := line[2].SentTo[1]; got != round {
			t.Fatalf("round %d: P2's checkpoint records %d sends to P1, want %d", round, got, round)
		}
		if err := mutablecp.VerifyConsistent(line); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestLiveCheckpointUnderConcurrentTraffic: every process sends during
// and across five instances from rotating initiators; each must commit,
// and the final line must be orphan-free.
func TestLiveCheckpointUnderConcurrentTraffic(t *testing.T) {
	c := newCluster(t, mutablecp.LiveOptions{N: 6})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopSenders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopSenders()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				to := (g + 1 + i%5) % 6
				if to != g {
					_ = c.Send(g, to, nil)
				}
				i++
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	for round := 0; round < 5; round++ {
		committed, err := c.Checkpoint(round%6, 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !committed {
			t.Fatalf("round %d aborted", round)
		}
	}
	stopSenders()
	quiesce(t, c)
	if err := mutablecp.VerifyConsistent(c.RecoveryLine()); err != nil {
		t.Fatalf("inconsistent under live traffic: %v", err)
	}
}

// TestLiveSequentialCheckpointsAdvanceLine: each instance from P0 moves
// its permanent checkpoint forward, and the line counts every message
// exactly once.
func TestLiveSequentialCheckpointsAdvanceLine(t *testing.T) {
	const k = 20
	c := newCluster(t, mutablecp.LiveOptions{N: 3})
	var lastCSN int
	for round := 1; round <= 3; round++ {
		for i := 0; i < k; i++ {
			if err := c.Send(1, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(0, 2, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, c)
		committed, err := c.Checkpoint(0, 5*time.Second)
		if err != nil || !committed {
			t.Fatalf("round %d: committed=%v err=%v", round, committed, err)
		}
		quiesce(t, c)
		line := c.RecoveryLine()
		if line[0].CSN <= lastCSN {
			t.Fatalf("round %d: P0 csn did not advance (%d)", round, line[0].CSN)
		}
		lastCSN = line[0].CSN
		// P0 depends on P1, so both checkpoint: P0's receives and P1's
		// sends both stand at k per round.
		if got, sent := line[0].RecvFrom[1], line[1].SentTo[0]; got != uint64(k*round) || sent != got {
			t.Fatalf("round %d: P0 recorded %d receives from P1, P1 %d sends, want %d", round, got, sent, k*round)
		}
		if err := mutablecp.VerifyConsistent(line); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveTimeout: a checkpoint that cannot finish within its timeout
// reports an error instead of hanging, and the instance finishes anyway.
func TestLiveTimeout(t *testing.T) {
	c := newCluster(t, mutablecp.LiveOptions{N: 3})
	if err := c.Send(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)
	// P0 depends on P1, so its instance needs P1's reply over TCP.
	if _, err := c.Checkpoint(0, time.Nanosecond); err == nil {
		t.Fatal("a checkpoint waiting on a peer finished within a nanosecond")
	}
	quiesce(t, c)
	if err := mutablecp.VerifyConsistent(c.RecoveryLine()); err != nil {
		t.Fatal(err)
	}
}
