package netsim_test

import (
	"testing"
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
)

func TestTxTimePaperValues(t *testing.T) {
	// §5.1: 1 KB computation message on 2 Mbps = 4 ms (with the paper's
	// KB = 1000 B arithmetic; ours uses 1024 B = 4.096 ms).
	got := netsim.TxTime(1000, netsim.WirelessLAN2Mbps)
	if got != 4*time.Millisecond {
		t.Fatalf("1000B @ 2Mbps = %v, want 4ms", got)
	}
	// 50-byte system message = 0.2 ms.
	if got := netsim.TxTime(50, netsim.WirelessLAN2Mbps); got != 200*time.Microsecond {
		t.Fatalf("50B @ 2Mbps = %v, want 0.2ms", got)
	}
	// 512 KB incremental checkpoint ≈ 2 s (paper uses 512*1000; with
	// binary KiB it is 2.097 s).
	got = netsim.TxTime(512*1000, netsim.WirelessLAN2Mbps)
	if got != 2048*time.Millisecond {
		t.Fatalf("512KB @ 2Mbps = %v, want 2.048s", got)
	}
}

func TestTxTimePanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	netsim.TxTime(1, 0)
}

func TestMediumSerializesFIFO(t *testing.T) {
	sim := des.New()
	m := netsim.NewMedium(sim, netsim.WirelessLAN2Mbps)
	var order []int
	var times []time.Duration
	for i := 0; i < 3; i++ {
		i := i
		m.Transmit(1000, des.Func(func() {
			order = append(order, i)
			times = append(times, sim.Now())
		}))
	}
	sim.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("medium reordered: %v", order)
		}
		want := time.Duration(i+1) * 4 * time.Millisecond
		if times[i] != want {
			t.Fatalf("delivery %d at %v, want %v (serialized)", i, times[i], want)
		}
	}
	if m.Transmits != 3 || m.BytesCarried != 3000 {
		t.Fatalf("counters: %d tx %d bytes", m.Transmits, m.BytesCarried)
	}
}

func TestMediumIdleGapRestartsClock(t *testing.T) {
	sim := des.New()
	m := netsim.NewMedium(sim, netsim.WirelessLAN2Mbps)
	var at time.Duration
	sim.Schedule(time.Second, func() {
		m.Transmit(1000, des.Func(func() { at = sim.Now() }))
	})
	sim.RunAll()
	if at != time.Second+4*time.Millisecond {
		t.Fatalf("delivery at %v, want 1.004s", at)
	}
}

func TestBroadcastSingleTransmission(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	var got []int
	var at []time.Duration
	lan.Broadcast(1, 50, func(to int) {
		got = append(got, to)
		at = append(at, sim.Now())
	})
	sim.RunAll()
	if len(got) != 3 {
		t.Fatalf("delivered to %v", got)
	}
	for _, a := range at {
		if a != 200*time.Microsecond {
			t.Fatalf("broadcast delivery at %v, want one tx time", a)
		}
	}
	if lan.Medium().Transmits != 1 {
		t.Fatalf("transmits = %d, want 1 (radio broadcast)", lan.Medium().Transmits)
	}
	for _, to := range got {
		if to == 1 {
			t.Fatal("broadcast delivered to sender")
		}
	}
}

func TestLANStableTransferOccupiesMedium(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 2, netsim.WirelessLAN2Mbps)
	var ckptDone, msgAt time.Duration
	lan.StableTransfer(0, 512*1024, des.Func(func() { ckptDone = sim.Now() }))
	lan.Unicast(0, 1, 50, des.Func(func() { msgAt = sim.Now() }))
	sim.RunAll()
	if ckptDone < 2*time.Second {
		t.Fatalf("checkpoint transfer took %v, want >= 2s", ckptDone)
	}
	if msgAt <= ckptDone {
		t.Fatalf("system message overtook checkpoint data on FIFO medium (%v <= %v)", msgAt, ckptDone)
	}
}

// TestUtilization: the medium is busy for one TxTime per transmission,
// counted in BytesCarried, even when the transmission has nothing to
// deliver.
func TestUtilization(t *testing.T) {
	sim := des.New()
	m := netsim.NewMedium(sim, netsim.WirelessLAN2Mbps)
	if end := m.Transmit(1000, nil); end != 4*time.Millisecond {
		t.Fatalf("undelivered transmit ends at %v, want 4ms", end)
	}
	var at time.Duration
	m.Transmit(1000, des.Func(func() { at = sim.Now() }))
	sim.RunAll()
	if at != 8*time.Millisecond {
		t.Fatalf("next delivery at %v, want 8ms (behind the undelivered transmit)", at)
	}
	if m.Transmits != 2 || m.BytesCarried != 2000 {
		t.Fatalf("counters: %d tx %d bytes, want 2 and 2000", m.Transmits, m.BytesCarried)
	}
}
