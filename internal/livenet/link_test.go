package livenet_test

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mutablecp/internal/livenet"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// deadAddr reserves a loopback port and closes the listener, yielding an
// address nothing answers on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLinkBackoffPersistsAcrossSends is the regression test for the
// per-send backoff reset bug: with a peer that stays down across several
// sends, the reconnect schedule must keep escalating from send to send
// instead of restarting at the base every call. (The old mesh sender
// kept the backoff in a local variable of the send loop, so a dead peer
// was re-dialed at the base interval forever.)
func TestLinkBackoffPersistsAcrossSends(t *testing.T) {
	l := livenet.NewLink(deadAddr(t), livenet.LinkOptions{
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
	})
	defer l.Close()

	var schedule []time.Duration
	var failures []uint64
	for send := 0; send < 4; send++ {
		if err := l.Send([]byte("frame")); err == nil {
			t.Fatalf("send %d to dead peer succeeded", send)
		}
		schedule = append(schedule, l.Backoff())
		failures = append(failures, l.DialFailures())
	}

	// Every failed dial escalates, so each send must leave the schedule
	// strictly further along than the last (until the cap).
	for i := 1; i < len(schedule); i++ {
		if schedule[i] < schedule[i-1] {
			t.Fatalf("backoff reset between sends: %v", schedule)
		}
		if schedule[i] == schedule[i-1] && schedule[i] < 250*time.Millisecond {
			t.Fatalf("backoff stopped escalating below the cap: %v", schedule)
		}
	}
	// With MaxAttempts=2 and base 1 ms, send 0 ends at 2 ms; a reset
	// schedule would end every send there.
	if schedule[len(schedule)-1] <= schedule[0] {
		t.Fatalf("final backoff %v not beyond first send's %v — schedule was reset",
			schedule[len(schedule)-1], schedule[0])
	}
	if failures[3] != 8 {
		t.Fatalf("want 8 dial failures after 4 sends x 2 attempts, got %d", failures[3])
	}
}

// TestLinkRecoversAndResetsBackoff: once the peer comes back, a
// successful send resets the schedule to zero.
func TestLinkRecoversAndResetsBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	l := livenet.NewLink(addr, livenet.LinkOptions{
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	defer l.Close()
	if err := l.Send([]byte("x")); err == nil {
		t.Fatal("send to down peer succeeded")
	}
	if l.Backoff() == 0 {
		t.Fatal("no backoff accumulated against down peer")
	}

	// Revive the peer on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln2.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 16)
		conn.Read(buf) //nolint:errcheck
	}()
	if err := l.Send([]byte("hello")); err != nil {
		t.Fatalf("send after peer revival: %v", err)
	}
	if got := l.Backoff(); got != 0 {
		t.Fatalf("backoff not reset after successful send: %v", got)
	}
	<-done
}

// TestLinkOnConnectHandshake: the handshake hook runs on every fresh
// connection and its failure counts as a dial failure.
func TestLinkOnConnectHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	ran := 0
	l := livenet.NewLink(ln.Addr().String(), livenet.LinkOptions{
		MaxAttempts: 1,
		OnConnect: func(conn net.Conn) error {
			ran++
			// Any handshake bytes do; the far side discards what it reads.
			_, err := conn.Write([]byte{0, 0, 0, 3, 'j', 'n', 'k'})
			return err
		},
	})
	defer l.Close()
	frame, err := wire.AppendMessage(nil, &protocol.Message{
		Kind: protocol.KindComputation, From: 0, To: 1, Trigger: protocol.NoTrigger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(frame); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("OnConnect ran %d times, want 1", ran)
	}
	// A second send on the live connection must not re-handshake.
	if err := l.Send(frame); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("OnConnect re-ran on a live connection (%d)", ran)
	}
}

// sinkListener accepts on a loopback port and discards what arrives; it
// reports how many connections it has accepted.
func sinkListener(t *testing.T) (addr string, accepted func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn) //nolint:errcheck
			}()
		}
	}()
	return ln.Addr().String(), func() int { return int(n.Load()) }
}

// sendInBackground starts l.Send on its own goroutine.
func sendInBackground(l *livenet.Link) <-chan error {
	done := make(chan error, 1)
	go func() { done <- l.Send([]byte("frame")) }()
	return done
}

// promptly returns the Send's result, failing the test if it takes more
// than ten seconds — a limit that only separates "at once" from a backoff
// of a minute; it is not a latency bound.
func promptly(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Send still waiting after 10s")
		return nil
	}
}

// TestLinkRedialsAtOnceAfterWriteError: the backoff paces dials to a peer
// that does not answer. A connection that carried a write and then broke
// is re-dialed without any wait and without charging the schedule.
func TestLinkRedialsAtOnceAfterWriteError(t *testing.T) {
	addr, accepted := sinkListener(t)
	l := livenet.NewLink(addr, livenet.LinkOptions{MaxAttempts: 2, BaseBackoff: time.Minute, MaxBackoff: time.Minute})
	defer l.Close()
	if err := l.Send([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	l.Kill() // the next write fails on the closed socket
	if err := promptly(t, sendInBackground(l)); err != nil {
		t.Fatalf("send after a broken connection: %v", err)
	}
	if got := l.Backoff(); got != 0 {
		t.Fatalf("a write error on an established connection charged the backoff: %v", got)
	}
	if got := l.DialFailures(); got != 0 {
		t.Fatalf("dial failures = %d, want 0", got)
	}
	// The peer's accept loop runs behind the kernel's; give it a moment.
	for deadline := time.Now().Add(10 * time.Second); accepted() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("peer accepted %d connections, want 2 (the original and one re-dial)", accepted())
		}
	}
}

// waitDialFailures polls until the link has recorded want failed dials,
// i.e. until a Send on a dead address has reached its backoff wait.
func waitDialFailures(t *testing.T, l *livenet.Link, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.DialFailures() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("link stuck at %d dial failures, want %d", l.DialFailures(), want)
		}
	}
}

// TestLinkResetWakesBackoffSleep: a Send waiting out a one-minute backoff
// dials the moment Reset is called.
func TestLinkResetWakesBackoffSleep(t *testing.T) {
	l := livenet.NewLink(deadAddr(t), livenet.LinkOptions{MaxAttempts: 2, BaseBackoff: time.Minute, MaxBackoff: time.Minute})
	defer l.Close()
	done := sendInBackground(l)
	waitDialFailures(t, l, 1) // first dial refused; the second waits a minute
	l.Reset()
	if err := promptly(t, done); err == nil {
		t.Fatal("send to a dead address succeeded")
	}
	if got := l.DialFailures(); got != 2 {
		t.Fatalf("dial failures = %d, want 2: Reset must wake the waiting Send into its second dial", got)
	}
	// That dial failed, so the schedule restarted from the base.
	if got := l.Backoff(); got != time.Minute {
		t.Fatalf("backoff after Reset and one failed dial = %v, want the base", got)
	}
}

// TestLinkCloseWakesBackoffSleep: Close does not wait out a backoff
// either, and the waiting Send returns ErrLinkClosed without dialing.
func TestLinkCloseWakesBackoffSleep(t *testing.T) {
	l := livenet.NewLink(deadAddr(t), livenet.LinkOptions{MaxAttempts: 2, BaseBackoff: time.Minute, MaxBackoff: time.Minute})
	done := sendInBackground(l)
	waitDialFailures(t, l, 1)
	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited behind a backoff")
	}
	if err := promptly(t, done); !errors.Is(err, livenet.ErrLinkClosed) {
		t.Fatalf("send woken by Close returned %v, want ErrLinkClosed", err)
	}
	if got := l.DialFailures(); got != 1 {
		t.Fatalf("dial failures = %d, want 1: a closed link must not dial", got)
	}
}
