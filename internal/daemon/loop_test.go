package daemon

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mutablecp/internal/protocol"
)

// startCluster boots every node of cfg in this process and waits for the
// readiness barrier; the daemons stop when the test ends.
func startCluster(t *testing.T, cfg *Config) []*Daemon {
	t.Helper()
	daemons := make([]*Daemon, cfg.N())
	t.Cleanup(func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	})
	for id := range daemons {
		d, err := New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
	}
	if err := WaitClusterReady(cfg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return daemons
}

// handoffs reads how many events d's serve goroutine ran and how many
// batches its writers wrote.
func handoffs(d *Daemon) (loop, writer uint64) {
	for _, s := range d.sessions {
		if s != nil {
			writer += s.snapshotMetrics().WriterBatches
		}
	}
	return d.mb.handoffCount(), writer
}

// acked waits until d has no unacked frame: every peer has run the
// events its frames caused, since an ack leaves after its event.
func acked(t *testing.T, d *Daemon) {
	t.Helper()
	idle := func() bool {
		for _, s := range d.sessions {
			if s != nil && s.backlog() > 0 {
				return false
			}
		}
		return true
	}
	if pollUntil(time.Now().Add(10*time.Second), nil, idle) != nil {
		t.Fatalf("P%d still has unacked frames", d.id)
	}
}

// TestIdleInstanceRunsInline: on an idle two-node cluster, one instance
// is a chain of single events — initiate, request, reply, commit — and
// each runs on the goroutine that has it, with its frames written there:
// the serve goroutine runs none of them and no writer goroutine writes.
func TestIdleInstanceRunsInline(t *testing.T) {
	cfg, err := LoopbackConfig(2, filepath.Join(t.TempDir(), "stores"))
	if err != nil {
		t.Fatal(err)
	}
	ds := startCluster(t, cfg)
	// Traffic both ways connects both links and makes P0 depend on P1.
	for from, d := range ds {
		if err := d.SendApp(protocol.ProcessID(1-from), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	acked(t, ds[0])
	acked(t, ds[1])
	var loop0, writer0 [2]uint64
	for i, d := range ds {
		loop0[i], writer0[i] = handoffs(d)
	}

	committed, err := ds[0].Checkpoint(10 * time.Second)
	if err != nil || !committed {
		t.Fatalf("checkpoint: committed %v, %v", committed, err)
	}
	acked(t, ds[0]) // P1 has run the commit
	for i, d := range ds {
		loop, writer := handoffs(d)
		if loop != loop0[i] || writer != writer0[i] {
			t.Errorf("P%d: the instance took %d loop handoffs and %d writer batches, want 0 and 0",
				i, loop-loop0[i], writer-writer0[i])
		}
	}
}

// TestStatusAnswersWhilePeerStalls: a peer that accepts, welcomes and
// then never reads fills its socket, and the daemon's writes to it stall.
// The events that queue those writes run on, the link holding a tail and
// the rest left queued for the writer goroutine, so the loop, and the
// control plane through it, still answers at once rather than after a
// write timeout.
func TestStatusAnswersWhilePeerStalls(t *testing.T) {
	cfg, err := LoopbackConfig(2, filepath.Join(t.TempDir(), "stores"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	cfg.Nodes[1].Addr = ln.Addr().String()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() }) //nolint:errcheck
			var hello envelope
			if readEnvelope(conn, &hello) != nil {
				continue
			}
			welcome := envelope{Kind: envHello, Src: 1, Inc: 1}
			writeEnvelope(conn, &welcome) //nolint:errcheck // then never read
		}
	}()
	d, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if pollUntil(time.Now().Add(10*time.Second), nil, d.Ready) != nil {
		t.Fatal("no handshake with the stalling peer")
	}

	start := time.Now()
	payload := make([]byte, 64<<10)
	for i := 0; i < 256; i++ { // 16 MiB: more than the socket buffers hold
		if err := d.SendApp(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := Dial(cfg.Nodes[0].CtlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Status(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("256 sends and a status took %v against a stalled peer; a write blocked the loop", took)
	}
	if !d.sessions[1].queued() {
		t.Fatal("the peer's socket took 16 MiB unread: the test did not stall a write")
	}
}

// TestConcurrentFlushesStrandNoFrame: several goroutines send to one
// peer at once while that peer sends back, so flushes of one session
// (event runners, readers writing acks) keep finding the link's send lock
// held and leave their envelopes to its holder, which must take them
// once it lets go. The retransmit timers are stopped, so a frame no one
// takes would wait for good: after every round each frame must be acked
// within a second, and none resent.
func TestConcurrentFlushesStrandNoFrame(t *testing.T) {
	cfg, err := LoopbackConfig(2, filepath.Join(t.TempDir(), "stores"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoSync = true // the test is about the write path, not the disk
	ds := startCluster(t, cfg)
	for _, d := range ds {
		d.StopRetransmitTimers()
	}
	const rounds, k = 50, 8
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < k; g++ {
			from := 0
			if g%4 == 3 { // a quarter of the senders are the peer, sending back
				from = 1
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ds[from].SendApp(protocol.ProcessID(1-from), []byte{byte(r), byte(g)}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for _, d := range ds {
			s := d.sessions[1-d.id]
			if pollUntil(time.Now().Add(time.Second), nil, func() bool { return s.backlog() == 0 }) != nil {
				t.Fatalf("round %d: P%d still has %d unacked frames after a second: a flush left them queued",
					r, d.id, s.backlog())
			}
		}
	}
	for _, d := range ds {
		if n := d.sessions[1-d.id].snapshotMetrics().Retransmissions; n != 0 {
			t.Fatalf("P%d resent %d frames with its timers stopped", d.id, n)
		}
	}
}
