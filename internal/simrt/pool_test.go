package simrt

import (
	"testing"
	"time"

	"mutablecp/internal/core"
	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
	"mutablecp/internal/protocol"
)

func poolCluster(t testing.TB, newTransport func(sim *des.Simulator, n int) netsim.Transport) *Cluster {
	t.Helper()
	c, err := New(Config{
		N:            4,
		NewEngine:    func(env protocol.Env) protocol.Engine { return core.New(env) },
		NewTransport: newTransport,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMessagePoolingGate checks that recycling is enabled exactly when the
// transport guarantees exactly-once delivery: the LAN and the ARQ layer
// qualify, a raw fault-injecting transport (which may duplicate) must not.
func TestMessagePoolingGate(t *testing.T) {
	lan := poolCluster(t, nil) // default LAN
	if !lan.pooling {
		t.Error("LAN cluster should pool messages")
	}
	faulty := poolCluster(t, func(sim *des.Simulator, n int) netsim.Transport {
		inner := netsim.NewLAN(sim, n, netsim.WirelessLAN2Mbps)
		return netsim.NewFaulty(sim, inner, n, netsim.FaultConfig{Dup: 0.5})
	})
	if faulty.pooling {
		t.Error("duplicating transport must disable message pooling")
	}
	reliable := poolCluster(t, func(sim *des.Simulator, n int) netsim.Transport {
		inner := netsim.NewLAN(sim, n, netsim.WirelessLAN2Mbps)
		faulty := netsim.NewFaulty(sim, inner, n, netsim.FaultConfig{Dup: 0.5})
		return netsim.NewReliable(sim, faulty, n)
	})
	if !reliable.pooling {
		t.Error("ARQ layer restores exactly-once; pooling should be enabled")
	}
}

// TestDuplicatingTransportDeliversEveryCopy runs a cluster over a raw
// fault-injecting transport that duplicates every message, so each
// delivery record and message struct fires twice. Neither may be recycled
// after its first firing: both copies must arrive intact.
func TestDuplicatingTransportDeliversEveryCopy(t *testing.T) {
	c := poolCluster(t, func(sim *des.Simulator, n int) netsim.Transport {
		inner := netsim.NewLAN(sim, n, netsim.WirelessLAN2Mbps)
		return netsim.NewFaulty(sim, inner, n, netsim.FaultConfig{Dup: 1})
	})
	const k = 20
	for i := 0; i < k; i++ {
		c.SendApp(0, 1, nil)
		c.SendApp(2, 3, nil)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c.States()
	if got := protocol.CounterAt(st[1].RecvFrom, 0); got != 2*k {
		t.Errorf("P1 received %d from P0, want %d (every message twice)", got, 2*k)
	}
	if got := protocol.CounterAt(st[3].RecvFrom, 2); got != 2*k {
		t.Errorf("P3 received %d from P2, want %d (every message twice)", got, 2*k)
	}
	if errs := c.Errors(); len(errs) > 0 {
		t.Fatalf("cluster errors: %v", errs)
	}
}

// TestEpochFencesInFlightDeliveries: a delivery in flight when its sender
// or its receiver is restored belongs to the discarded execution and is
// dropped, counted as stale, whichever end moved on.
func TestEpochFencesInFlightDeliveries(t *testing.T) {
	c := poolCluster(t, nil)
	c.SendApp(0, 1, nil)
	c.SendApp(2, 3, nil)
	for _, pid := range []protocol.ProcessID{0, 3} { // a sender, a receiver
		p := c.Proc(pid)
		p.BeginRestore()
		p.MarkLive()
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c.States()
	if got := protocol.CounterAt(st[1].RecvFrom, 0); got != 0 {
		t.Errorf("P1 received %d from a restored sender, want 0", got)
	}
	if got := protocol.CounterAt(st[3].RecvFrom, 2); got != 0 {
		t.Errorf("restored P3 received %d sent before its restore, want 0", got)
	}
	if got := c.Metrics().StaleDropped; got != 2 {
		t.Errorf("%d stale deliveries dropped, want 2", got)
	}
}

// TestMessagePoolRecycles sends messages through the full simulated stack
// and checks that handled structs actually return to the free list and are
// reused by later sends.
func TestMessagePoolRecycles(t *testing.T) {
	c := poolCluster(t, nil)
	for i := 0; i < 8; i++ {
		c.SendApp(0, 1, nil)
		c.SendApp(2, 3, nil)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(c.msgPool) == 0 {
		t.Fatal("no messages recycled after drain")
	}
	recycled := c.msgPool[len(c.msgPool)-1]
	if got := c.newMessage(); got != recycled {
		t.Error("newMessage did not reuse the most recently released struct")
	}
	if errs := c.Errors(); len(errs) > 0 {
		t.Fatalf("cluster errors: %v", errs)
	}
}

// sendCompMsgs sends k computation messages round the ring of poolCluster's
// four processes, draining after every 64.
func sendCompMsgs(t testing.TB, c *Cluster, k int) {
	for i := 0; i < k; i++ {
		c.SendApp(i%4, (i+1)%4, nil)
		if i%64 == 63 {
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if errs := c.Errors(); len(errs) > 0 {
		t.Fatalf("cluster errors: %v", errs)
	}
}

// TestCompMsgAllocFree: once the pools are warm, a computation message
// through the whole simulated stack — engine send, the delivery record,
// the LAN's medium, the kernel's FIFO, engine receive — allocates
// nothing. It is the runtime's sibling of core's TestSteadySendAllocFree:
// a per-message closure or a regrown counter fails here.
func TestCompMsgAllocFree(t *testing.T) {
	c := poolCluster(t, nil)
	sendCompMsgs(t, c, 1024)
	if allocs := testing.AllocsPerRun(20, func() { sendCompMsgs(t, c, 256) }); allocs != 0 {
		t.Fatalf("%v allocations per 256 computation messages, want 0", allocs)
	}
}

// BenchmarkClusterCompMsg measures the full simrt cost of one computation
// message (engine send + LAN transmit + DES event + engine receive); the
// pools and the allocation-free engine path keep it flat in N.
func BenchmarkClusterCompMsg(b *testing.B) {
	c := poolCluster(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	sendCompMsgs(b, c, b.N)
}

// TestGrowCounter: first contact with peer i grows a truncated counter
// vector to i+1 entries in one step, keeping the old entries and reading
// 0 past them.
func TestGrowCounter(t *testing.T) {
	v := []uint64{4, 5}
	v = growCounter(v, 9, 1024)
	if len(v) != 10 {
		t.Fatalf("len %d after growing to index 9, want 10", len(v))
	}
	if v[0] != 4 || v[1] != 5 {
		t.Fatalf("old entries lost: %v", v)
	}
	for i := 2; i < len(v); i++ {
		if v[i] != 0 {
			t.Fatalf("entry %d past the old length reads %d, want 0", i, v[i])
		}
	}
	if w := growCounter(v, 3, 1024); len(w) != 10 || &w[0] != &v[0] {
		t.Fatal("growing to an index already present changed the vector")
	}
	if allocs := testing.AllocsPerRun(10, func() { growCounter(nil, 1000, 1024) }); allocs > 1 {
		t.Fatalf("first contact with peer 1000 made %v allocations, want at most 1", allocs)
	}
	// Limit case: doubling stops at the process count, and the last peer
	// index is still addressable.
	const n = 12
	v = growCounter(v, 10, n)
	if len(v) != 11 || cap(v) != n {
		t.Fatalf("len %d cap %d after growing a cap-10 vector to index 10 of %d, want len 11 cap %d",
			len(v), cap(v), n, n)
	}
	if w := growCounter(v, n-1, n); len(w) != n || &w[0] != &v[0] {
		t.Fatalf("growing to the last index %d: len %d, reallocated %v", n-1, len(w), &w[0] != &v[0])
	}
}

// TestMessagePoolBoundedByInFlight: after a drained run the message free
// list holds no more structs than the delivery free list holds records,
// i.e. than were ever in flight at once. Engines take their system
// messages from the list and deliverNow returns every struct to it, so
// the two lists fill at the same rate; an engine that allocates its own
// structs instead grows the list with every message it sends.
func TestMessagePoolBoundedByInFlight(t *testing.T) {
	c, err := New(Config{
		N:                   64,
		Seed:                1,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &PointToPoint{Rate: 0.05}
	gen.Install(c)
	c.Start()
	if err := c.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	c.StopTimers()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if c.metrics.TotalMutable == 0 || c.metrics.SysMsgs == 0 {
		t.Fatalf("run took %d mutable checkpoints and sent %d system messages, want both > 0",
			c.metrics.TotalMutable, c.metrics.SysMsgs)
	}
	// Drained, every record ever carved is back on the delivery list.
	if pool, carved := len(c.msgPool), len(c.deliveries); pool > carved {
		t.Errorf("message free list holds %d structs, more than the %d delivery records ever carved (%d system messages sent)",
			pool, carved, c.metrics.SysMsgs)
	} else {
		t.Logf("message free list %d structs, delivery records %d", pool, carved)
	}
}
