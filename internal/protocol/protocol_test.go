package protocol_test

import (
	"testing"

	"mutablecp/internal/protocol"
)

func TestKindStrings(t *testing.T) {
	kinds := map[protocol.Kind]string{
		protocol.KindComputation: "computation",
		protocol.KindRequest:     "request",
		protocol.KindReply:       "reply",
		protocol.KindCommit:      "commit",
		protocol.KindAbort:       "abort",
		protocol.KindMarker:      "marker",
		protocol.KindDecision:    "decision",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if protocol.Kind(99).String() != "kind?" {
		t.Error("unknown kind formatting")
	}
}

func TestIsSystem(t *testing.T) {
	if protocol.KindComputation.IsSystem() {
		t.Error("computation flagged as system")
	}
	for _, k := range []protocol.Kind{
		protocol.KindRequest, protocol.KindReply, protocol.KindCommit,
		protocol.KindAbort, protocol.KindMarker, protocol.KindDecision,
	} {
		if !k.IsSystem() {
			t.Errorf("%v not flagged as system", k)
		}
	}
}

func TestTriggerNone(t *testing.T) {
	if !protocol.NoTrigger.IsNone() {
		t.Error("NoTrigger not none")
	}
	if (protocol.Trigger{Pid: 0, Inum: 0}).IsNone() {
		t.Error("valid trigger flagged none")
	}
	a := protocol.Trigger{Pid: 1, Inum: 2}
	b := protocol.Trigger{Pid: 1, Inum: 2}
	if a != b {
		t.Error("equal triggers not comparable")
	}
}

func TestStateClone(t *testing.T) {
	s := protocol.State{
		Proc:     3,
		CSN:      7,
		SentTo:   []uint64{1, 2},
		RecvFrom: []uint64{3, 4},
	}
	c := s.Clone()
	c.SentTo[0] = 99
	c.RecvFrom[1] = 99
	if s.SentTo[0] != 1 || s.RecvFrom[1] != 4 {
		t.Error("Clone aliases source slices")
	}
	if c.Proc != 3 || c.CSN != 7 {
		t.Error("Clone lost scalar fields")
	}
}
