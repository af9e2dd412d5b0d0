package trace_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mutablecp/internal/trace"
)

func TestAddAndEvents(t *testing.T) {
	l := trace.New()
	l.Addf(time.Second, trace.KindSend, 1, 2, "csn=%d", 7)
	l.Addf(2*time.Second, trace.KindReceive, 2, 1, "")
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != trace.KindSend || evs[0].Process != 1 || evs[0].Peer != 2 {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if evs[0].Detail != "csn=7" {
		t.Fatalf("detail = %q", evs[0].Detail)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestRingEviction(t *testing.T) {
	l := trace.NewRing(3)
	for i := 0; i < 10; i++ {
		l.Addf(time.Duration(i), trace.KindNote, i, -1, "")
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Process != 7+i {
			t.Fatalf("ring order wrong: %+v", evs)
		}
	}
	if l.Len() != 10 {
		t.Fatalf("total count = %d, want 10", l.Len())
	}
}

func TestRingPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	trace.NewRing(0)
}

func TestEventString(t *testing.T) {
	peer := trace.Event{At: time.Second, Kind: trace.KindRequest, Process: 3, Peer: 4, Detail: "w=1/2"}
	if got, want := peer.String(), "[1s] P3 request P4 w=1/2"; got != want {
		t.Fatalf("peer event renders %q, want %q", got, want)
	}
	peerless := trace.Event{At: time.Second, Kind: trace.KindCommit, Process: 3, Peer: -1, Detail: "done"}
	if got, want := peerless.String(), "[1s] P3 commit done"; got != want {
		t.Fatalf("peerless event renders %q, want %q", got, want)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []trace.Kind{
		trace.KindSend, trace.KindReceive, trace.KindTentative, trace.KindMutable,
		trace.KindPromote, trace.KindDiscardMutable, trace.KindPermanent,
		trace.KindRequest, trace.KindReply, trace.KindCommit, trace.KindAbort,
		trace.KindBlock, trace.KindUnblock, trace.KindInitiate, trace.KindNote,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if trace.Kind(999).String() != "kind(999)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := trace.New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Addf(0, trace.KindNote, i, -1, "")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 8000 {
		t.Fatalf("len = %d, want 8000", l.Len())
	}
}
