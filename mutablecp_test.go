package mutablecp_test

import (
	"testing"
	"time"

	"mutablecp"
)

func TestPublicLiveClusterRoundTrip(t *testing.T) {
	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for i := 0; i < 10; i++ {
		if err := cluster.Send(i%4, (i+1)%4, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Quiesce(10 * time.Millisecond)
	committed, err := cluster.Checkpoint(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("checkpoint aborted")
	}
	cluster.Quiesce(10 * time.Millisecond)
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

func TestPublicLiveClusterWithBaseline(t *testing.T) {
	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{
		N:         3,
		Algorithm: mutablecp.AlgoKooToueg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_ = cluster.Send(1, 0, nil)
	cluster.Quiesce(10 * time.Millisecond)
	committed, err := cluster.Checkpoint(0, 5*time.Second)
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
}

func TestPublicBadOptions(t *testing.T) {
	if _, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 3, Algorithm: "bogus"}); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if c, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 3, TCP: true, Delay: time.Millisecond}); err == nil {
		c.Close()
		t.Fatal("TCP with Delay accepted (the delay would be dropped)")
	}
	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, p := range []mutablecp.ProcessID{-1, 3} {
		if _, err := cluster.Checkpoint(p, time.Second); err == nil {
			t.Fatalf("initiator %d accepted", p)
		}
	}
}

func TestPublicTraceLog(t *testing.T) {
	log := mutablecp.NewTraceLog()
	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 2, Trace: log})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_ = cluster.Send(0, 1, nil)
	cluster.Quiesce(10 * time.Millisecond)
	if _, err := cluster.Checkpoint(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(10 * time.Millisecond)
	if log.Len() == 0 {
		t.Fatal("trace log empty")
	}
}

func TestPublicTCPCluster(t *testing.T) {
	cluster, err := mutablecp.NewLiveCluster(mutablecp.LiveOptions{N: 3, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_ = cluster.Send(1, 0, []byte("over tcp"))
	cluster.Quiesce(20 * time.Millisecond)
	committed, err := cluster.Checkpoint(0, 10*time.Second)
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	cluster.Quiesce(20 * time.Millisecond)
	if err := mutablecp.VerifyConsistent(cluster.RecoveryLine()); err != nil {
		t.Fatal(err)
	}
}
