package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

func newCluster(t *testing.T, n int) *simrt.Cluster {
	t.Helper()
	c, err := simrt.New(simrt.Config{
		N:         n,
		Seed:      21,
		NewEngine: func(env protocol.Env) protocol.Engine { return core.New(env) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPointToPointRate(t *testing.T) {
	c := newCluster(t, 16)
	counts := make([]int, 16)
	c.OnDeliver = func(to, from protocol.ProcessID, payload []byte) { counts[from]++ }
	gen := &simrt.PointToPoint{Rate: 1.0}
	gen.Install(c)
	horizon := 2000 * time.Second
	if err := c.Run(horizon); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	c.Drain()
	for i, got := range counts {
		want := 2000.0
		if float64(got) < want*0.9 || float64(got) > want*1.1 {
			t.Fatalf("P%d sent %d messages in %v at rate 1/s, want ~%v", i, got, horizon, want)
		}
	}
}

func TestPointToPointUniformDestinations(t *testing.T) {
	c := newCluster(t, 4)
	recv := make([]int, 4)
	c.OnDeliver = func(to, from protocol.ProcessID, payload []byte) { recv[to]++ }
	gen := &simrt.PointToPoint{Rate: 2.0}
	gen.Install(c)
	c.Run(2000 * time.Second)
	gen.Stop()
	c.Drain()
	total := 0
	for _, v := range recv {
		total += v
	}
	for i, v := range recv {
		share := float64(v) / float64(total)
		if share < 0.2 || share > 0.3 {
			t.Fatalf("P%d received share %.3f, want ~0.25 (%v)", i, share, recv)
		}
	}
}

func TestStopHaltsTraffic(t *testing.T) {
	c := newCluster(t, 4)
	gen := &simrt.PointToPoint{Rate: 10}
	gen.Install(c)
	c.Run(100 * time.Second)
	gen.Stop()
	c.Drain()
	after := c.Metrics().CompMsgs
	c.Run(c.Sim().Now() + 100*time.Second)
	if c.Metrics().CompMsgs != after {
		t.Fatal("traffic continued after Stop")
	}
}

func TestGroupTrafficStaysInGroup(t *testing.T) {
	c := newCluster(t, 16)
	gen := &simrt.Group{Groups: 4, IntraRate: 1.0, InterRatio: 1000}
	crossNonLeader := 0
	c.OnDeliver = func(to, from protocol.ProcessID, payload []byte) {
		gFrom, gTo := gen.GroupOf(from, 16), gen.GroupOf(to, 16)
		if gFrom != gTo {
			// Inter-group traffic must be leader-to-leader only.
			if from != gen.LeaderOf(gFrom, 16) || to != gen.LeaderOf(gTo, 16) {
				crossNonLeader++
			}
		}
	}
	gen.Install(c)
	c.Run(2000 * time.Second)
	gen.Stop()
	c.Drain()
	if crossNonLeader != 0 {
		t.Fatalf("%d inter-group messages bypassed the leaders", crossNonLeader)
	}
}

func TestGroupInterRate(t *testing.T) {
	c := newCluster(t, 16)
	gen := &simrt.Group{Groups: 4, IntraRate: 10, InterRatio: 100}
	intra, inter := 0, 0
	c.OnDeliver = func(to, from protocol.ProcessID, payload []byte) {
		if gen.GroupOf(from, 16) == gen.GroupOf(to, 16) {
			intra++
		} else {
			inter++
		}
	}
	gen.Install(c)
	c.Run(5000 * time.Second)
	gen.Stop()
	c.Drain()
	if inter == 0 {
		t.Fatal("no inter-group traffic at all")
	}
	// 16 processes at intra 10/s vs 4 leaders at 0.1/s: expected ratio of
	// message counts is (16*10)/(4*0.1) = 400.
	ratio := float64(intra) / float64(inter)
	if ratio < 200 || ratio > 800 {
		t.Fatalf("intra/inter message ratio = %.1f, want ~400", ratio)
	}
}

func TestGroupOfAndLeaderOf(t *testing.T) {
	gen := &simrt.Group{Groups: 4}
	if gen.GroupOf(0, 16) != 0 || gen.GroupOf(3, 16) != 0 || gen.GroupOf(4, 16) != 1 || gen.GroupOf(15, 16) != 3 {
		t.Fatal("GroupOf wrong")
	}
	if gen.LeaderOf(0, 16) != 0 || gen.LeaderOf(2, 16) != 8 {
		t.Fatal("LeaderOf wrong")
	}
}

func TestGroupPanicsOnBadConfig(t *testing.T) {
	c := newCluster(t, 16)
	cases := []*simrt.Group{
		{Groups: 1, IntraRate: 1, InterRatio: 10},
		{Groups: 4, IntraRate: 0, InterRatio: 10},
		{Groups: 3, IntraRate: 1, InterRatio: 10}, // 16 % 3 != 0
	}
	for i, gen := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			gen.Install(c)
		}()
	}
}

func TestP2PPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&simrt.PointToPoint{}).Install(newCluster(t, 4))
}

func TestNames(t *testing.T) {
	if (&simrt.PointToPoint{Rate: 0.5}).Name() == "" {
		t.Fatal("empty name")
	}
	if (&simrt.Group{Groups: 4, IntraRate: 1, InterRatio: 1000}).Name() == "" {
		t.Fatal("empty name")
	}
}
