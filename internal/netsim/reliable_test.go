package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
)

func TestTransparentOverPerfectNetwork(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	r := netsim.NewReliable(sim, lan, 4)
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		r.Unicast(0, 1, 100, des.Func(func() { got = append(got, i) }))
	}
	seen := 0
	r.Broadcast(2, 100, func(to int) { seen++ })
	sim.RunAll()
	if len(got) != 20 {
		t.Fatalf("delivered %d/20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got[:i+1])
		}
	}
	if seen != 3 {
		t.Fatalf("broadcast reached %d, want 3", seen)
	}
	if r.Metrics.Retransmissions != 0 || r.Metrics.DupsSuppressed != 0 {
		t.Fatalf("perfect network caused ARQ work: %+v", r.Metrics)
	}
	if r.Metrics.AcksSent == 0 {
		t.Fatal("no acks flowed")
	}
}

// TestRestoresFIFOUnderChaos is the package's reason to exist: heavy loss,
// duplication, and jitter below; exactly-once in-order delivery above.
func TestRestoresFIFOUnderChaos(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sim := des.New()
			lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
			faulty := netsim.NewFaulty(sim, lan, 4, netsim.FaultConfig{
				Seed:      seed,
				Drop:      0.25,
				Dup:       0.15,
				JitterMax: 20 * time.Millisecond,
			})
			r := netsim.NewReliable(sim, faulty, 4)
			const msgs = 120
			var fwd, rev []int
			for i := 0; i < msgs; i++ {
				i := i
				// Spread sends over time so retransmission timers interleave
				// with fresh traffic.
				sim.Schedule(time.Duration(i)*3*time.Millisecond, func() {
					r.Unicast(0, 1, 200, des.Func(func() { fwd = append(fwd, i) }))
					r.Unicast(1, 0, 200, des.Func(func() { rev = append(rev, i) }))
				})
			}
			if err := sim.RunAll(); err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]int{"fwd": fwd, "rev": rev} {
				if len(got) != msgs {
					t.Fatalf("%s delivered %d/%d (gaveUp=%d)", name, len(got), msgs, r.Metrics.GaveUp)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("%s order broken at %d: %v", name, i, got[max(0, i-3):i+1])
					}
				}
			}
			if faulty.Dropped == 0 || r.Metrics.Retransmissions == 0 {
				t.Fatal("chaos never engaged — test is vacuous")
			}
			if faulty.Duplicated > 0 && r.Metrics.DupsSuppressed == 0 {
				t.Fatal("duplicates were injected but none suppressed")
			}
		})
	}
}

// TestBroadcastTakesFIFOSlots: a broadcast between two unicasts on the
// same channel must deliver between them, even under loss.
func TestBroadcastTakesFIFOSlots(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 3, netsim.WirelessLAN2Mbps)
	faulty := netsim.NewFaulty(sim, lan, 3, netsim.FaultConfig{
		Seed: 5, Drop: 0.3, JitterMax: 10 * time.Millisecond,
	})
	r := netsim.NewReliable(sim, faulty, 3)
	var got []string
	for round := 0; round < 30; round++ {
		round := round
		sim.Schedule(time.Duration(round)*10*time.Millisecond, func() {
			r.Unicast(0, 1, 100, des.Func(func() { got = append(got, fmt.Sprintf("u%d-a", round)) }))
			r.Broadcast(0, 100, func(to int) {
				if to == 1 {
					got = append(got, fmt.Sprintf("b%d", round))
				}
			})
			r.Unicast(0, 1, 100, des.Func(func() { got = append(got, fmt.Sprintf("u%d-b", round)) }))
		})
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for round := 0; round < 30; round++ {
		want = append(want, fmt.Sprintf("u%d-a", round), fmt.Sprintf("b%d", round), fmt.Sprintf("u%d-b", round))
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d/%d on P0->P1", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestGivesUpOnCrashedPeer: a fail-stopped destination must not keep the
// simulation alive forever — the retry budget drains the channel.
func TestGivesUpOnCrashedPeer(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 2, netsim.WirelessLAN2Mbps)
	faulty := netsim.NewFaulty(sim, lan, 2, netsim.FaultConfig{
		Seed:    1,
		CrashAt: map[int]time.Duration{1: 0},
	})
	r := netsim.NewReliable(sim, faulty, 2)
	delivered := false
	r.Unicast(0, 1, 100, des.Func(func() { delivered = true }))
	r.Unicast(0, 1, 100, des.Func(func() { delivered = true }))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("delivered to a crashed process")
	}
	if r.Metrics.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1", r.Metrics.GaveUp)
	}
	if r.Metrics.Retransmissions != 16 {
		t.Fatalf("Retransmissions = %d, want 16 (the budget)", r.Metrics.Retransmissions)
	}
	// A later send reopens the channel under a fresh incarnation — and,
	// the peer still being dead, the new backlog is given up in turn. The
	// event count stays bounded either way.
	r.Unicast(0, 1, 100, des.Func(func() { delivered = true }))
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("delivered to a crashed process after reopening")
	}
	if r.Metrics.Reopened != 1 || r.Metrics.GaveUp != 2 {
		t.Fatalf("Reopened = %d, GaveUp = %d, want 1/2", r.Metrics.Reopened, r.Metrics.GaveUp)
	}
}

// TestReopensAfterGiveUp: a channel that gave its peer up while the peer
// was down must come back once the peer does — the next send starts a
// fresh incarnation the receiver adopts, and traffic flows in order again.
func TestReopensAfterGiveUp(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 2, netsim.WirelessLAN2Mbps)
	faulty := netsim.NewFaulty(sim, lan, 2, netsim.FaultConfig{
		Seed:      1,
		CrashAt:   map[int]time.Duration{1: 0},
		RestartAt: map[int]time.Duration{1: time.Minute}, // outlasts the ~30 s give-up horizon
	})
	r := netsim.NewReliable(sim, faulty, 2)
	var got []int
	r.Unicast(0, 1, 100, des.Func(func() { got = append(got, 0) })) // lost: given up mid-outage
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if r.Metrics.GaveUp != 1 || len(got) != 0 {
		t.Fatalf("outage: gaveUp=%d delivered=%v", r.Metrics.GaveUp, got)
	}
	for i := 1; i <= 3; i++ {
		i := i
		sim.Schedule(time.Minute, func() {
			r.Unicast(0, 1, 100, des.Func(func() { got = append(got, i) }))
		})
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("post-revival delivery %v, want [1 2 3]", got)
	}
	if r.Metrics.Reopened != 1 {
		t.Fatalf("Reopened = %d, want 1", r.Metrics.Reopened)
	}
}

// TestSurvivesPartitionWindow: a partition shorter than the give-up
// horizon delays traffic but loses nothing.
func TestSurvivesPartitionWindow(t *testing.T) {
	sim := des.New()
	lan := netsim.NewLAN(sim, 2, netsim.WirelessLAN2Mbps)
	faulty := netsim.NewFaulty(sim, lan, 2, netsim.FaultConfig{
		Seed: 1,
		Partitions: []netsim.Partition{
			{From: 0, Until: 3 * time.Second, GroupA: []int{0}},
		},
	})
	r := netsim.NewReliable(sim, faulty, 2)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		r.Unicast(0, 1, 100, des.Func(func() { got = append(got, i) }))
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d/5 across the partition (gaveUp=%d)", len(got), r.Metrics.GaveUp)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	if sim.Now() < 3*time.Second {
		t.Fatalf("deliveries finished at %v, inside the partition window", sim.Now())
	}
	if r.Metrics.Retransmissions == 0 {
		t.Fatal("partition survived without retransmissions?")
	}
}

func chaosFingerprint(seed uint64) string {
	sim := des.New()
	lan := netsim.NewLAN(sim, 4, netsim.WirelessLAN2Mbps)
	faulty := netsim.NewFaulty(sim, lan, 4, netsim.FaultConfig{
		Seed: seed, Drop: 0.2, Dup: 0.1, JitterMax: 5 * time.Millisecond,
	})
	r := netsim.NewReliable(sim, faulty, 4)
	out := ""
	for i := 0; i < 50; i++ {
		i := i
		sim.Schedule(time.Duration(i)*2*time.Millisecond, func() {
			r.Unicast(i%4, (i+1)%4, 100, des.Func(func() {
				out += fmt.Sprintf("%d@%v;", i, sim.Now())
			}))
		})
	}
	if err := sim.RunAll(); err != nil {
		return "err: " + err.Error()
	}
	return fmt.Sprintf("%s M%+v", out, r.Metrics)
}

func TestDeterminism(t *testing.T) {
	a := chaosFingerprint(11)
	b := chaosFingerprint(11)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := chaosFingerprint(12); c == a {
		t.Fatal("different seeds produced identical runs")
	}
}
