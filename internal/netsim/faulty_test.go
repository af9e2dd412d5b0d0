package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
)

func TestFaultyZeroConfigIsTransparent(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 4, netsim.FaultConfig{})
	var uni, bc int
	f.Unicast(0, 1, 1000, des.Func(func() { uni++ }))
	f.Broadcast(0, 1000, func(to int) { bc++ })
	done := false
	f.StableTransfer(2, 1000, des.Func(func() { done = true }))
	sim.RunAll()
	if uni != 1 || bc != 3 || !done {
		t.Fatalf("zero-config faulty altered traffic: uni=%d bc=%d stable=%v", uni, bc, done)
	}
	if f.Dropped+f.Duplicated+f.Jittered+f.PartitionDropped+f.CrashDropped != 0 {
		t.Fatal("zero-config faulty counted faults")
	}
}

func TestFaultyDropAll(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 4, netsim.FaultConfig{Seed: 7, Drop: 1})
	delivered := 0
	for i := 0; i < 10; i++ {
		f.Unicast(0, 1, 100, des.Func(func() { delivered++ }))
	}
	if lan.Medium().Transmits != 0 {
		t.Fatal("dropped unicasts still occupied the medium")
	}
	f.Broadcast(2, 100, func(to int) { delivered++ })
	sim.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered %d messages at drop=1", delivered)
	}
	if f.Dropped != 10+3 {
		t.Fatalf("Dropped = %d, want 13", f.Dropped)
	}
	// The broadcast frame itself still goes out (per-listener radio loss);
	// only the deliveries are suppressed.
	if lan.Medium().Transmits != 1 {
		t.Fatalf("broadcast transmits = %d, want 1", lan.Medium().Transmits)
	}

	// Partial loss: a drop is decided before the inner transport queues
	// the frame, so the survivors still arrive in send order.
	sim = des.New()
	lan = netsim.NewLAN(sim, 8, netsim.WirelessLAN2Mbps)
	f = netsim.NewFaulty(sim, lan, 8, netsim.FaultConfig{Seed: 9, Drop: 0.3})
	var got []int
	for i := 0; i < 60; i++ {
		f.Unicast(2, 3, 100, des.Func(func() { got = append(got, i) }))
	}
	sim.RunAll()
	if len(got) == 60 || len(got) == 0 {
		t.Fatalf("drop=0.3 delivered %d/60", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("FIFO violated among survivors: %v", got[:i+1])
		}
	}
}

func TestFaultyDuplicateAll(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 4, netsim.FaultConfig{Seed: 7, Dup: 1})
	delivered := 0
	f.Unicast(0, 1, 100, des.Func(func() { delivered++ }))
	perDest := map[int]int{}
	f.Broadcast(0, 100, func(to int) { perDest[to]++ })
	sim.RunAll()
	if delivered != 2 {
		t.Fatalf("unicast delivered %d copies, want 2", delivered)
	}
	for to := 1; to < 4; to++ {
		if perDest[to] != 2 {
			t.Fatalf("broadcast delivered %d copies to P%d, want 2", perDest[to], to)
		}
	}
	if f.Duplicated != 4 {
		t.Fatalf("Duplicated = %d, want 4", f.Duplicated)
	}
}

func TestFaultyPartitionWindow(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 4, netsim.FaultConfig{
		Seed: 7,
		Partitions: []netsim.Partition{
			{From: time.Second, Until: 2 * time.Second, GroupA: []int{0, 1}},
		},
	})
	var crossed, within, after int
	// Before the window everything passes.
	f.Unicast(0, 2, 100, des.Func(func() { crossed++ }))
	sim.Schedule(1500*time.Millisecond, func() {
		f.Unicast(0, 2, 100, des.Func(func() { t.Error("cross-partition message delivered") }))
		f.Unicast(2, 1, 100, des.Func(func() { t.Error("cross-partition message delivered") }))
		f.Unicast(0, 1, 100, des.Func(func() { within++ })) // same side: passes
		f.Broadcast(0, 100, func(to int) {
			if to >= 2 {
				t.Errorf("broadcast crossed the partition to P%d", to)
			}
			within++
		})
	})
	sim.Schedule(2500*time.Millisecond, func() {
		f.Unicast(0, 2, 100, des.Func(func() { after++ })) // window over: passes
	})
	sim.RunAll()
	if crossed != 1 || within != 2 || after != 1 {
		t.Fatalf("crossed=%d within=%d after=%d, want 1/2/1", crossed, within, after)
	}
	if f.PartitionDropped != 4 {
		t.Fatalf("PartitionDropped = %d, want 4", f.PartitionDropped)
	}
}

func TestFaultyCrashStopsTraffic(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 3, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 3, netsim.FaultConfig{
		Seed:    7,
		CrashAt: map[int]time.Duration{1: time.Second},
	})
	var before, toCrashed int
	f.Unicast(1, 0, 100, des.Func(func() { before++ })) // pre-crash: delivered
	sim.Schedule(2*time.Second, func() {
		f.Unicast(1, 0, 100, des.Func(func() { t.Error("crashed sender transmitted") }))
		f.Unicast(0, 1, 100, des.Func(func() { toCrashed++ }))
		f.StableTransfer(1, 100, des.Func(func() { t.Error("crashed host wrote a checkpoint") }))
	})
	sim.RunAll()
	if before != 1 {
		t.Fatalf("pre-crash message not delivered")
	}
	if toCrashed != 0 {
		t.Fatal("message delivered to a crashed process")
	}
	if f.CrashDropped != 3 {
		t.Fatalf("CrashDropped = %d, want 3", f.CrashDropped)
	}
}

// TestFaultyCrashSuppressesInFlight: a message already in flight when the
// receiver fail-stops must not be delivered (the crash check runs at
// delivery time).
func TestFaultyCrashSuppressesInFlight(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 2, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 2, netsim.FaultConfig{
		Seed:    7,
		CrashAt: map[int]time.Duration{1: time.Microsecond},
	})
	// 1000 bytes at 2 Mbps arrive at 4 ms, well after the crash.
	f.Unicast(0, 1, 1000, des.Func(func() { t.Error("in-flight message delivered to crashed process") }))
	sim.RunAll()
	if f.CrashDropped != 1 {
		t.Fatalf("CrashDropped = %d, want 1", f.CrashDropped)
	}
}

// TestFaultyCrashWindow: with a RestartAt entry, the crash is a
// [from, until) window — traffic before the window and after it is carried
// (the latter counted in RevivedDeliveries), traffic inside the window is
// CrashDropped.
func TestFaultyCrashWindow(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 3, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 3, netsim.FaultConfig{
		Seed:      7,
		CrashAt:   map[int]time.Duration{1: time.Second},
		RestartAt: map[int]time.Duration{1: 3 * time.Second},
	})
	var before, during, after int
	f.Unicast(0, 1, 100, des.Func(func() { before++ })) // pre-window: delivered
	sim.Schedule(2*time.Second, func() {
		f.Unicast(0, 1, 100, des.Func(func() { during++ })) // inside: dropped at receiver
		f.Unicast(1, 0, 100, des.Func(func() { during++ })) // inside: dropped at sender
		f.StableTransfer(1, 100, des.Func(func() { during++ }))
	})
	sim.Schedule(4*time.Second, func() {
		f.Unicast(0, 1, 100, des.Func(func() { after++ })) // window closed: delivered
		f.Unicast(1, 0, 100, des.Func(func() { after++ })) // restarted sender works again
		f.StableTransfer(1, 100, des.Func(func() { after++ }))
	})
	sim.RunAll()
	if before != 1 {
		t.Fatalf("pre-window message not delivered")
	}
	if during != 0 {
		t.Fatalf("delivered %d messages inside the crash window", during)
	}
	if after != 3 {
		t.Fatalf("post-restart deliveries = %d, want 3", after)
	}
	if f.CrashDropped != 3 {
		t.Fatalf("CrashDropped = %d, want 3", f.CrashDropped)
	}
	// Receiver-side delivery to P1 + P1's two sends (unicast, stable).
	if f.RevivedDeliveries != 3 {
		t.Fatalf("RevivedDeliveries = %d, want 3", f.RevivedDeliveries)
	}
}

// TestFaultyRestartWithoutCrashIgnored: a RestartAt entry with no matching
// CrashAt entry never counts anything.
func TestFaultyRestartWithoutCrashIgnored(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 2, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 2, netsim.FaultConfig{
		Seed:      7,
		RestartAt: map[int]time.Duration{1: time.Microsecond},
	})
	got := 0
	sim.Schedule(time.Second, func() { f.Unicast(0, 1, 100, des.Func(func() { got++ })) })
	sim.RunAll()
	if got != 1 || f.RevivedDeliveries != 0 || f.CrashDropped != 0 {
		t.Fatalf("got=%d revived=%d crashdropped=%d, want 1/0/0", got, f.RevivedDeliveries, f.CrashDropped)
	}
}

// fingerprint runs a fixed traffic pattern through a faulty LAN and
// records the complete delivery schedule plus fault counters.
func faultyFingerprint(cfg netsim.FaultConfig) string {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	f := netsim.NewFaulty(sim, lan, 4, cfg)
	out := ""
	for i := 0; i < 40; i++ {
		i := i
		from, to := i%4, (i+1+i%3)%4
		if from == to {
			to = (to + 1) % 4
		}
		f.Unicast(from, to, 100+i, des.Func(func() {
			out += fmt.Sprintf("u%d@%v;", i, sim.Now())
		}))
		if i%10 == 0 {
			f.Broadcast(from, 60, func(dst int) {
				out += fmt.Sprintf("b%d>%d@%v;", i, dst, sim.Now())
			})
		}
	}
	sim.RunAll()
	return fmt.Sprintf("%s D%d C%d J%d", out, f.Dropped, f.Duplicated, f.Jittered)
}

func TestFaultyDeterminism(t *testing.T) {
	cfg := netsim.FaultConfig{Seed: 42, Drop: 0.2, Dup: 0.1, JitterMax: 3 * time.Millisecond}
	a := faultyFingerprint(cfg)
	b := faultyFingerprint(cfg)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	cfg.Seed = 43
	if c := faultyFingerprint(cfg); c == a {
		t.Fatal("different seeds produced identical fault patterns")
	}
}
