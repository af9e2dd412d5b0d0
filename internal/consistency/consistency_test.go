package consistency_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
)

func mkStates(n int) map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, n)
	for i := 0; i < n; i++ {
		out[i] = protocol.State{
			Proc:     i,
			SentTo:   make([]uint64, n),
			RecvFrom: make([]uint64, n),
		}
	}
	return out
}

func TestEmptySystemConsistent(t *testing.T) {
	if err := consistency.Check(mkStates(4)); err != nil {
		t.Fatalf("pristine states inconsistent: %v", err)
	}
}

func TestConsistentWithInTransit(t *testing.T) {
	s := mkStates(3)
	// P0 sent 5 to P1; P1 received 3: two in transit — consistent.
	s[0].SentTo[1] = 5
	s[1].RecvFrom[0] = 3
	if err := consistency.Check(s); err != nil {
		t.Fatalf("in-transit messages flagged: %v", err)
	}
	transit, err := consistency.InTransit(s)
	if err != nil {
		t.Fatal(err)
	}
	if transit[[2]protocol.ProcessID{0, 1}] != 2 {
		t.Fatalf("in-transit = %v", transit)
	}
	if len(transit) != 1 {
		t.Fatalf("spurious channels: %v", transit)
	}
}

func TestOrphanDetected(t *testing.T) {
	s := mkStates(3)
	// P2 recorded receiving 4 from P1, but P1 recorded sending only 2.
	s[1].SentTo[2] = 2
	s[2].RecvFrom[1] = 4
	err := consistency.Check(s)
	if err == nil {
		t.Fatal("orphan not detected")
	}
	var ie *consistency.InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("error type %T", err)
	}
	if len(ie.Orphans) != 1 {
		t.Fatalf("orphans = %+v", ie.Orphans)
	}
	o := ie.Orphans[0]
	if o.Sender != 1 || o.Receiver != 2 || o.Sent != 2 || o.Received != 4 {
		t.Fatalf("orphan = %+v", o)
	}
	if !strings.Contains(err.Error(), "P1->P2") {
		t.Fatalf("error text: %v", err)
	}
}

func TestMultipleOrphans(t *testing.T) {
	s := mkStates(3)
	s[0].RecvFrom[1] = 1
	s[0].RecvFrom[2] = 1
	err := consistency.Check(s)
	var ie *consistency.InconsistencyError
	if !errors.As(err, &ie) || len(ie.Orphans) != 2 {
		t.Fatalf("err = %v", err)
	}
}

func TestInTransitRejectsInconsistent(t *testing.T) {
	s := mkStates(2)
	s[1].RecvFrom[0] = 1
	if _, err := consistency.InTransit(s); err == nil {
		t.Fatal("InTransit accepted inconsistent states")
	}
}

// mixedTruncation is a line whose vectors are cut at their last nonzero
// entry, as the sparse-state ladder stores them: P0 never talked to P2/P3,
// P2 recorded no receives, P3 no sends. padded is the same line with every
// vector zero-extended to n; both must read alike.
func mixedTruncation(padded bool) map[protocol.ProcessID]protocol.State {
	s := map[protocol.ProcessID]protocol.State{
		0: {Proc: 0, CSN: 2, SentTo: []uint64{0, 5}, RecvFrom: []uint64{0, 3}},
		1: {Proc: 1, CSN: 2, SentTo: []uint64{3, 0, 0, 2}, RecvFrom: []uint64{4}},
		2: {Proc: 2, CSN: 1, SentTo: []uint64{0, 2}, RecvFrom: nil},
		3: {Proc: 3, CSN: 1, SentTo: nil, RecvFrom: []uint64{0, 1}},
	}
	if padded {
		for id, st := range s {
			st.SentTo = protocol.PadCounters(st.SentTo, len(s))
			st.RecvFrom = protocol.PadCounters(st.RecvFrom, len(s))
			s[id] = st
		}
	}
	return s
}

func TestTruncatedVectorsMeanZero(t *testing.T) {
	// Counter vectors may be truncated (or nil): a missing entry is a 0
	// count, not an error. A nil RecvFrom is a process that recorded no
	// receives — consistent against any senders.
	nilRecv := mkStates(2)
	st := nilRecv[1]
	st.RecvFrom = nil
	nilRecv[1] = st
	nilRecv[0].SentTo[1] = 3 // in transit, not orphaned
	// In mixedTruncation: 0→1 sent 5, received 4; 1→0 sent 3, received 3;
	// 1→3 sent 2, received 1; 2→1 sent 2, and P1's RecvFrom ends before
	// index 2, so it received 0.
	mixed := map[[2]protocol.ProcessID]uint64{{0, 1}: 1, {1, 3}: 1, {2, 1}: 2}
	cases := []struct {
		name   string
		states map[protocol.ProcessID]protocol.State
		want   map[[2]protocol.ProcessID]uint64
	}{
		{"nil RecvFrom", nilRecv, map[[2]protocol.ProcessID]uint64{{0, 1}: 3}},
		{"mixed truncation", mixedTruncation(false), mixed},
		{"mixed truncation padded", mixedTruncation(true), mixed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := consistency.Check(tc.states); err != nil {
				t.Fatalf("truncated vectors rejected: %v", err)
			}
			transit, err := consistency.InTransit(tc.states)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(transit, tc.want) {
				t.Fatalf("in-transit = %v, want %v", transit, tc.want)
			}
		})
	}
}

// fig1States encodes the checkpoint counters of the paper's Fig. 1 trace
// (P1,P2,P3 = ids 0,1,2): m_a P1->P2 and m_b P3->P2 are recorded on both
// sides; m1 P1->P3 is sent after C1,1 so it is absent from P1's
// checkpoint. With naive checkpointing P3's checkpoint is cut after
// processing m1 — the figure's orphan; with a mutable checkpoint it is
// cut before, and the line is consistent.
func fig1States(naive bool) map[protocol.ProcessID]protocol.State {
	s := mkStates(3)
	s[0].SentTo[1] = 1
	s[1].RecvFrom[0] = 1
	s[2].SentTo[1] = 1
	s[1].RecvFrom[2] = 1
	if naive {
		s[2].RecvFrom[0] = 1
	}
	return s
}

// fig2States encodes Fig. 2 (P1..P5 = ids 0..4): m P4->P1, m3 P2->P5, m4
// P5->P4 (the z-dependency), m5 P5->P2 all recorded on both sides. P2
// additionally sent a second message to P5 that is still in the channel
// when P5's checkpoint is cut — a legitimate in-transit message. The
// naive variant cuts P2's checkpoint after processing P5's
// post-checkpoint send m5b, recreating the orphan the mutable checkpoint
// exists to prevent.
func fig2States(naive bool) map[protocol.ProcessID]protocol.State {
	s := mkStates(5)
	s[3].SentTo[0] = 1 // m
	s[0].RecvFrom[3] = 1
	s[1].SentTo[4] = 2 // m3 + one still in transit
	s[4].RecvFrom[1] = 1
	s[4].SentTo[3] = 1 // m4
	s[3].RecvFrom[4] = 1
	s[4].SentTo[1] = 1 // m5 (m5b sent after C5,1 is absent)
	s[1].RecvFrom[4] = 1
	if naive {
		s[1].RecvFrom[4] = 2 // m5b processed before P2's checkpoint
	}
	return s
}

// TestInTransitAgreesWithCheckOnFigureTraces pins the contract that
// InTransit accepts exactly the global checkpoints Check accepts, and
// reports the identical orphan set when both reject, on the paper's
// Fig. 1 and Fig. 2 interleavings.
func TestInTransitAgreesWithCheckOnFigureTraces(t *testing.T) {
	cases := []struct {
		name        string
		states      map[protocol.ProcessID]protocol.State
		wantOrphan  *consistency.Orphan
		wantTransit map[[2]protocol.ProcessID]uint64
	}{
		{
			name:        "fig1 mutable line",
			states:      fig1States(false),
			wantTransit: map[[2]protocol.ProcessID]uint64{},
		},
		{
			name:       "fig1 naive line",
			states:     fig1States(true),
			wantOrphan: &consistency.Orphan{Sender: 0, Receiver: 2, Sent: 0, Received: 1},
		},
		{
			name:   "fig2 mutable line",
			states: fig2States(false),
			wantTransit: map[[2]protocol.ProcessID]uint64{
				{1, 4}: 1,
			},
		},
		{
			name:       "fig2 naive line",
			states:     fig2States(true),
			wantOrphan: &consistency.Orphan{Sender: 4, Receiver: 1, Sent: 1, Received: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkErr := consistency.Check(tc.states)
			transit, transitErr := consistency.InTransit(tc.states)
			if (checkErr == nil) != (transitErr == nil) {
				t.Fatalf("Check err=%v but InTransit err=%v", checkErr, transitErr)
			}
			if tc.wantOrphan != nil {
				var ce, te *consistency.InconsistencyError
				if !errors.As(checkErr, &ce) || !errors.As(transitErr, &te) {
					t.Fatalf("error types: Check=%T InTransit=%T", checkErr, transitErr)
				}
				if !reflect.DeepEqual(ce.Orphans, te.Orphans) {
					t.Fatalf("orphan sets differ: Check=%+v InTransit=%+v", ce.Orphans, te.Orphans)
				}
				if len(ce.Orphans) != 1 || ce.Orphans[0] != *tc.wantOrphan {
					t.Fatalf("orphans = %+v, want exactly %+v", ce.Orphans, *tc.wantOrphan)
				}
				return
			}
			if checkErr != nil {
				t.Fatalf("consistent figure line rejected: %v", checkErr)
			}
			if len(transit) != len(tc.wantTransit) {
				t.Fatalf("in-transit = %v, want %v", transit, tc.wantTransit)
			}
			for ch, n := range tc.wantTransit {
				if transit[ch] != n {
					t.Fatalf("in-transit[%v] = %d, want %d", ch, transit[ch], n)
				}
			}
		})
	}
}

// TestTruncatedVectorsOrphanAgainstZero pins the sparse-counter error
// path: a recorded receive whose sender's vector is missing (nil,
// truncated before the slot, or the sender absent from the map entirely)
// counts against zero sends and must surface as an orphan with Sent=0.
func TestTruncatedVectorsOrphanAgainstZero(t *testing.T) {
	cases := []struct {
		name string
		mk   func() map[protocol.ProcessID]protocol.State
	}{
		{"nil sender SentTo", func() map[protocol.ProcessID]protocol.State {
			s := mkStates(3)
			st := s[1]
			st.SentTo = nil
			s[1] = st
			s[2].RecvFrom[1] = 2 // receives nothing backs
			return s
		}},
		{"SentTo truncated before slot", func() map[protocol.ProcessID]protocol.State {
			s := mkStates(3)
			st := s[1]
			st.SentTo = st.SentTo[:1] // slot for P2 missing
			s[1] = st
			s[2].RecvFrom[1] = 2
			return s
		}},
		{"sender absent from map", func() map[protocol.ProcessID]protocol.State {
			s := mkStates(2)
			s[5] = protocol.State{Proc: 5, RecvFrom: []uint64{0, 2}} // claims receives from P1
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			states := tc.mk()
			err := consistency.Check(states)
			if err == nil {
				t.Fatal("orphan against missing sender vector not detected")
			}
			var ie *consistency.InconsistencyError
			if !errors.As(err, &ie) {
				t.Fatalf("unexpected error type: %v", err)
			}
			if len(ie.Orphans) != 1 || ie.Orphans[0].Sent != 0 {
				t.Fatalf("orphans = %+v, want one with Sent=0", ie.Orphans)
			}
			if _, err := consistency.InTransit(states); err == nil {
				t.Fatal("inconsistent states accepted by InTransit")
			}
		})
	}
}

func TestPropConsistencyIffNoOrphanPair(t *testing.T) {
	// Random counter matrices: Check must flag exactly the pairs where
	// recv > sent.
	f := func(sent, recv [3][3]uint8) bool {
		n := 3
		s := mkStates(n)
		expectOrphan := false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				s[i].SentTo[j] = uint64(sent[i][j])
				s[j].RecvFrom[i] = uint64(recv[j][i])
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && uint64(recv[j][i]) > uint64(sent[i][j]) {
					expectOrphan = true
				}
			}
		}
		err := consistency.Check(s)
		return (err != nil) == expectOrphan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropInTransitMatchesDifference(t *testing.T) {
	f := func(sent [2][2]uint8, delivered [2][2]uint8) bool {
		n := 2
		s := mkStates(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				sj := uint64(sent[i][j])
				dj := uint64(delivered[i][j])
				if dj > sj {
					dj = sj // keep consistent
				}
				s[i].SentTo[j] = sj
				s[j].RecvFrom[i] = dj
			}
		}
		transit, err := consistency.InTransit(s)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				want := s[i].SentTo[j] - s[j].RecvFrom[i]
				got := transit[[2]protocol.ProcessID{i, j}]
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
