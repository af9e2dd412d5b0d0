package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

func TestClientServerTrafficShape(t *testing.T) {
	c := newCluster(t, 8)
	gen := &simrt.ClientServer{Servers: 2, Rate: 0.5}
	toServer, toClient, clientToClient := 0, 0, 0
	c.OnDeliver = func(to, from protocol.ProcessID, payload []byte) {
		switch {
		case to < 2 && from >= 2:
			toServer++
		case to >= 2 && from < 2:
			toClient++
		case to >= 2 && from >= 2:
			clientToClient++
		}
	}
	gen.Install(c)
	if err := c.Run(2000 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	c.Drain()
	if clientToClient != 0 {
		t.Fatalf("%d client-to-client messages", clientToClient)
	}
	if toServer == 0 || toClient == 0 {
		t.Fatalf("requests=%d responses=%d", toServer, toClient)
	}
	// Every request gets one response (minus in-flight at stop).
	if diff := toServer - toClient; diff < 0 || diff > 16 {
		t.Fatalf("requests=%d responses=%d: responses unmatched", toServer, toClient)
	}
}

func TestClientServerCheckpointingConsistent(t *testing.T) {
	c, err := simrt.New(simrt.Config{
		N:                   8,
		Seed:                33,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &simrt.ClientServer{Servers: 2, Rate: 0.1}
	gen.Install(c)
	c.Start()
	c.Run(3 * time.Hour)
	gen.Stop()
	c.StopTimers()
	c.Drain()
	for _, e := range c.Errors() {
		t.Errorf("cluster error: %v", e)
	}
	if len(c.Metrics().Completed()) < 5 {
		t.Fatal("too few initiations")
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}

func TestClientServerValidation(t *testing.T) {
	c := newCluster(t, 4)
	for _, gen := range []*simrt.ClientServer{
		{Servers: 0, Rate: 1},
		{Servers: 4, Rate: 1},
		{Servers: 1, Rate: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", gen)
				}
			}()
			gen.Install(c)
		}()
	}
}

func TestExtraNames(t *testing.T) {
	if (&simrt.ClientServer{Servers: 2, Rate: 1}).Name() == "" {
		t.Fatal("empty name")
	}
}
