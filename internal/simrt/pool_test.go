package simrt

import (
	"testing"

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
		return netsim.NewReliable(sim, faulty, n, netsim.ReliableConfig{})
	})
	if !reliable.pooling {
		t.Error("ARQ layer restores exactly-once; pooling should be enabled")
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

// BenchmarkClusterCompMsg measures the full simrt cost of one computation
// message (engine send + LAN transmit + DES event + engine receive); the
// message-struct pool and the allocation-free engine path keep it flat in N.
func BenchmarkClusterCompMsg(b *testing.B) {
	c := poolCluster(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SendApp(i%4, (i+1)%4, nil)
		if i%64 == 63 {
			if err := c.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := c.Drain(); err != nil {
		b.Fatal(err)
	}
	if errs := c.Errors(); len(errs) > 0 {
		b.Fatalf("cluster errors: %v", errs)
	}
}
