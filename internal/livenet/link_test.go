package livenet_test

import (
	"bytes"
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

// heldListener accepts on a loopback port and hands each connection to
// the test unread, so a peer that never reads is one that the test never
// reads from.
func heldListener(t *testing.T) (addr string, conns <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			ch <- conn
		}
	}()
	return ln.Addr().String(), ch
}

// accepted returns the next connection the held listener accepted.
func accepted(t *testing.T, conns <-chan net.Conn) net.Conn {
	t.Helper()
	select {
	case c := <-conns:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("peer accepted no connection")
		return nil
	}
}

// smallSendBuffer shrinks each fresh connection's send buffer, so a
// frame far larger than it cannot be written without waiting.
func smallSendBuffer(conn net.Conn) error { return conn.(*net.TCPConn).SetWriteBuffer(4096) }

// pattern returns n bytes that differ from any shift of themselves.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251)
	}
	return b
}

// readN reads n bytes from conn in the background, or what arrives of
// them within ten seconds.
func readN(conn net.Conn, n int) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		buf := make([]byte, n)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		k, _ := io.ReadFull(conn, buf)
		out <- buf[:k]
	}()
	return out
}

// tryWrite offers b to l.TryWrite through fill and reports, with
// TryWrite's results, whether the link called fill and so took b.
func tryWrite(l *livenet.Link, b []byte) (ok, wait, took bool) {
	ok, wait = l.TryWrite(func(buf []byte) []byte {
		took = true
		return append(buf, b...)
	})
	return ok, wait, took
}

// TestTryWriteRefuses: TryWrite neither dials nor waits. It refuses when
// there is no connection (wait: the batch is for a Send), and while a
// Send holds the link (here inside its handshake; the batch is for the
// holder), and a refused TryWrite never calls fill, so the batch stays
// the caller's. Once the Send is done, it writes.
func TestTryWriteRefuses(t *testing.T) {
	addr, conns := heldListener(t)
	entered, release := make(chan struct{}), make(chan struct{})
	l := livenet.NewLink(addr, livenet.LinkOptions{
		MaxAttempts: 1,
		OnConnect: func(net.Conn) error {
			close(entered)
			<-release
			return nil
		},
	})
	defer l.Close()
	if ok, wait, took := tryWrite(l, []byte("x")); ok || !wait || took {
		t.Fatalf("TryWrite with no connection = %v, wait %v, fill called %v; want refused to a Send, fill not called", ok, wait, took)
	}
	select {
	case <-conns:
		t.Fatal("TryWrite dialed")
	default:
	}

	done := sendInBackground(l)
	<-entered
	if ok, wait, took := tryWrite(l, []byte("x")); ok || wait || took {
		t.Fatalf("TryWrite while Send held the link = %v, wait %v, fill called %v; want left to the holder, fill not called", ok, wait, took)
	}
	close(release)
	if err := promptly(t, done); err != nil {
		t.Fatal(err)
	}
	peer := accepted(t, conns)
	got := readN(peer, len("frame")+len("after"))
	if ok, wait, _ := tryWrite(l, []byte("after")); !ok || wait {
		t.Fatalf("TryWrite on an idle connection = %v, wait %v; want written whole", ok, wait)
	}
	if s := string(<-got); s != "frameafter" {
		t.Fatalf("peer read %q, want %q", s, "frameafter")
	}
}

// TestTryWriteTailGoesFirst: against a peer that does not read, TryWrite
// writes what the socket takes and keeps the rest as the tail. It refuses
// while the tail is unsent, without calling fill, and the next Send
// writes the tail and then its own frame, so the peer reads every byte
// once and in order.
func TestTryWriteTailGoesFirst(t *testing.T) {
	addr, conns := heldListener(t)
	l := livenet.NewLink(addr, livenet.LinkOptions{OnConnect: smallSendBuffer})
	defer l.Close()
	if err := l.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	peer := accepted(t, conns)
	big := pattern(2 << 20)
	ok, wait, _ := tryWrite(l, big)
	if !ok || !wait {
		t.Fatalf("TryWrite of %d bytes to a peer that never reads = %v, wait %v; want a tail", len(big), ok, wait)
	}
	if ok, _, took := tryWrite(l, []byte("x")); ok || took {
		t.Fatalf("TryWrite behind an unsent tail = %v, fill called %v; want refused, fill not called", ok, took)
	}
	want := append(append([]byte("hello"), big...), "next"...)
	got := readN(peer, len(want))
	if err := l.Send([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if b := <-got; !bytes.Equal(b, want) {
		t.Fatalf("peer read %d bytes, not the %d sent in order", len(b), len(want))
	}
	if ok, wait, _ := tryWrite(l, []byte("x")); !ok || wait {
		t.Fatalf("TryWrite after the tail was sent = %v, wait %v; want written whole", ok, wait)
	}
}

// TestDroppedConnectionDiscardsTail: the tail belongs to its connection.
// Once Reset drops it, TryWrite refuses (no connection) without calling
// fill, and the next Send dials a fresh connection that carries only its
// own frame.
func TestDroppedConnectionDiscardsTail(t *testing.T) {
	addr, conns := heldListener(t)
	l := livenet.NewLink(addr, livenet.LinkOptions{OnConnect: smallSendBuffer})
	defer l.Close()
	if err := l.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	accepted(t, conns)
	if _, wait, _ := tryWrite(l, pattern(2<<20)); !wait {
		t.Fatal("no tail against a peer that never reads")
	}
	l.Reset()
	if ok, wait, took := tryWrite(l, []byte("x")); ok || !wait || took {
		t.Fatalf("TryWrite after Reset dropped the connection = %v, wait %v, fill called %v; want refused to a Send, fill not called", ok, wait, took)
	}
	if err := l.Send([]byte("next")); err != nil {
		t.Fatal(err)
	}
	fresh := accepted(t, conns)
	l.Close()
	b, err := io.ReadAll(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "next" {
		t.Fatalf("fresh connection carried %d bytes, want only %q", len(b), "next")
	}
}

// TestFailedTryWriteKeepsBatch: a batch whose connection fails under it
// is not lost. It starts on a frame boundary, so the next Send dials a
// fresh connection and writes the whole batch there, before its own
// frame.
func TestFailedTryWriteKeepsBatch(t *testing.T) {
	addr, conns := heldListener(t)
	l := livenet.NewLink(addr, livenet.LinkOptions{})
	defer l.Close()
	if err := l.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	accepted(t, conns)
	l.Kill()
	if ok, wait, _ := tryWrite(l, []byte("batch")); !ok || !wait {
		t.Fatalf("TryWrite on a killed connection = %v, wait %v; want the batch taken and kept for a Send", ok, wait)
	}
	if err := l.Send([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if s := string(<-readN(accepted(t, conns), len("batchnext"))); s != "batchnext" {
		t.Fatalf("fresh connection carried %q, want %q", s, "batchnext")
	}
}
