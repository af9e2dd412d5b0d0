package simrt_test

import (
	"reflect"
	"testing"
	"time"

	"mutablecp/internal/consistency"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
)

// savingEnv keeps a deep copy of every state its engine saves, taken at
// the save. A process saves at most one state per trigger: a promoted
// mutable checkpoint reaches stable storage with the state it was saved
// with.
type savingEnv struct {
	protocol.Env
	saved map[protocol.Trigger]protocol.State
}

func (e *savingEnv) SaveTentative(s protocol.State, trig protocol.Trigger) {
	e.saved[trig] = s.Clone()
	e.Env.SaveTentative(s, trig)
}

func (e *savingEnv) SaveMutable(s protocol.State, trig protocol.Trigger) {
	e.saved[trig] = s.Clone()
	e.Env.SaveMutable(s, trig)
}

// TestStoredStatesOutliveLaterTraffic: the stores keep the states they
// are handed without copying them, so nothing the process does after a
// save may write into a saved state. After a tentative, a mutable and a
// commit, 50 more sends and receives leave every stored state equal to
// the copy taken at its save.
func TestStoredStatesOutliveLaterTraffic(t *testing.T) {
	const n = 3
	envs := make([]*savingEnv, n)
	c, err := simrt.New(simrt.Config{
		N:    n,
		Seed: 5,
		NewEngine: func(env protocol.Env) protocol.Engine {
			e := &savingEnv{Env: env, saved: make(map[protocol.Trigger]protocol.State)}
			envs[env.ID()] = e
			return core.New(e)
		},
		SingleInitiation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// P0 depends on P2 and P2 on P1, so P0's instance asks P2 and P2 asks
	// P1. The triggered message from P0 reaches P1 first; P1 has sent this
	// interval, so it saves a mutable checkpoint, which P2's request then
	// promotes.
	c.SendApp(2, 0, nil)
	c.SendApp(1, 2, nil)
	c.Run(time.Second)
	if !c.Proc(0).MaybeInitiate() {
		t.Fatal("initiate failed")
	}
	c.SendApp(0, 1, nil)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := c.Metrics().Completed()
	if len(recs) != 1 || !recs[0].Committed || recs[0].Promoted != 1 {
		t.Fatalf("want one committed instance with a promoted mutable checkpoint, got %+v", recs)
	}
	for i := range 50 {
		c.SendApp(protocol.ProcessID(i%n), protocol.ProcessID((i+1)%n), nil)
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for pid, e := range envs {
		for _, rec := range c.Proc(pid).Stable().History() {
			if rec.Trigger.IsNone() {
				continue
			}
			if want := e.saved[rec.Trigger]; !reflect.DeepEqual(rec.State, want) {
				t.Errorf("P%d's stored checkpoint for %v reads %+v, saved as %+v", pid, rec.Trigger, rec.State, want)
			}
			checked++
		}
	}
	if checked != n {
		t.Fatalf("checked %d stored checkpoints, want %d", checked, n)
	}
	if err := consistency.Check(c.PermanentLine()); err != nil {
		t.Fatal(err)
	}
}
