package daemon

import (
	"io"
	"log"
	"net"
	"testing"
	"time"

	"mutablecp/internal/relnet"
)

// TestRetransmitWaitsFullRTO: a frame is resent only after it has gone a
// full rto unacked, however the timer stood when it was pushed. The frame
// here is pushed just before the tick a timer started with the session
// would make, to a peer that never acks: it is not resent on that tick,
// and it is resent once a full rto has passed.
func TestRetransmitWaitsFullRTO(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck // a peer that refuses every dial never acks

	s := newPeerSession(&Daemon{id: 0, inc: 1, logger: log.New(io.Discard, "", 0)}, 1, addr)
	defer s.close()

	time.Sleep(relnet.BaseRTO - 10*time.Millisecond)
	pushed := time.Now()
	s.sendFrame([]byte("frame"))
	for s.snapshotMetrics().Retransmissions == 0 {
		if time.Since(pushed) > 10*time.Second {
			t.Fatal("a frame unacked for a full rto was never resent")
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(pushed); waited < relnet.BaseRTO {
		t.Fatalf("frame resent %v after it was pushed, before a full rto (%v)", waited, relnet.BaseRTO)
	}
}
