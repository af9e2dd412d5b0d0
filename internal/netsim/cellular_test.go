package netsim_test

import (
	"testing"
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
)

func newCellular(sim *des.Simulator, n int) *netsim.Cellular {
	return netsim.NewCellular(sim, n, netsim.CellularConfig{})
}

func TestCellularPlacement(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8) // 4 cells round-robin
	for p := 0; p < 8; p++ {
		if c.CellOf(p) != p%4 {
			t.Fatalf("P%d in cell %d, want %d", p, c.CellOf(p), p%4)
		}
	}
}

func TestSameCellUnicast(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	var at time.Duration
	c.Unicast(0, 4, 1000, des.Func(func() { at = sim.Now() })) // both in cell 0
	sim.RunAll()
	if at != 4*time.Millisecond {
		t.Fatalf("same-cell delivery at %v, want 4ms (one hop)", at)
	}
}

func TestInterCellUnicastCrossesWire(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	var at time.Duration
	c.Unicast(0, 1, 1000, des.Func(func() { at = sim.Now() })) // cell 0 -> cell 1
	sim.RunAll()
	// uplink 4ms + wired (1ms latency + 0.8ms tx) + downlink 4ms.
	want := 4*time.Millisecond + time.Millisecond + 800*time.Microsecond + 4*time.Millisecond
	if at != want {
		t.Fatalf("inter-cell delivery at %v, want %v", at, want)
	}
}

func TestHandoffValidation(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	if err := c.Handoff(0, 0); err == nil {
		t.Fatal("no-op handoff accepted")
	}
	if err := c.Handoff(0, 99); err == nil {
		t.Fatal("bad cell accepted")
	}
	if err := c.Handoff(0, 2); err != nil {
		t.Fatal(err)
	}
	if c.CellOf(0) != 2 {
		t.Fatal("handoff did not move the host")
	}
	if c.Handoffs != 1 {
		t.Fatalf("handoffs = %d", c.Handoffs)
	}
}

func TestFIFOAcrossHandoff(t *testing.T) {
	// A message sent before a handoff takes the long inter-cell route; a
	// message sent just after, on the new same-cell route, would overtake
	// it without resequencing. Delivery order must stay FIFO.
	sim := des.New()
	c := newCellular(sim, 8)
	var order []int
	// P0 (cell 0) sends msg A to P1 (cell 1): slow inter-cell route.
	c.Unicast(0, 1, 1000, des.Func(func() { order = append(order, 1) }))
	// P0 hands off to cell 1, then sends msg B: fast same-cell route.
	if err := c.Handoff(0, 1); err != nil {
		t.Fatal(err)
	}
	c.Unicast(0, 1, 1000, des.Func(func() { order = append(order, 2) }))
	sim.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
	if c.Reordered == 0 {
		t.Fatal("resequencer never engaged — test routes did not race")
	}
}

// TestHandoffWhileResequencingBufferNonEmpty: msg A takes the slow
// inter-cell route; after a handoff, msg B takes the fast same-cell route
// and parks in the resequencing buffer; a broadcast fired while B is
// buffered must not overtake either of them on the P0->P1 channel.
// (Regression: Broadcast used to bypass the resequencer entirely.)
func TestHandoffWhileResequencingBufferNonEmpty(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	var order []string
	// P0 (cell 0) -> P1 (cell 1): slow route, arrives around 9.8 ms.
	c.Unicast(0, 1, 1000, des.Func(func() { order = append(order, "A") }))
	if err := c.Handoff(0, 1); err != nil {
		t.Fatal(err)
	}
	// Fast same-cell route: B arrives at 4 ms and must wait for A.
	c.Unicast(0, 1, 1000, des.Func(func() { order = append(order, "B") }))
	// The broadcast's P1 delivery rides the same fast cell-1 medium and
	// would land around 4.2 ms — before A — without resequencing.
	c.Broadcast(0, 50, func(to int) {
		if to == 1 {
			order = append(order, "C")
		}
	})
	sim.RunAll()
	if len(order) != 3 || order[0] != "A" || order[1] != "B" || order[2] != "C" {
		t.Fatalf("delivery order on P0->P1 = %v, want [A B C]", order)
	}
	if c.Reordered < 2 {
		t.Fatalf("Reordered = %d, want >= 2 (B and the broadcast both waited)", c.Reordered)
	}
}

// TestUnicastCannotOvertakeBroadcast is the mirror image: a unicast sent
// after a broadcast, on a faster route, must queue behind the broadcast's
// delivery on the same channel.
func TestUnicastCannotOvertakeBroadcast(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	var order []string
	// P0 in cell 0, P1 in cell 1: the broadcast's delivery to P1 crosses
	// the wire (~8+ ms with a 1000-byte frame).
	c.Broadcast(0, 1000, func(to int) {
		if to == 1 {
			order = append(order, "bcast")
		}
	})
	if err := c.Handoff(0, 1); err != nil {
		t.Fatal(err)
	}
	c.Unicast(0, 1, 100, des.Func(func() { order = append(order, "uni") }))
	sim.RunAll()
	if len(order) != 2 || order[0] != "bcast" || order[1] != "uni" {
		t.Fatalf("delivery order = %v, want [bcast uni]", order)
	}
}

func TestCellularBroadcastReachesAllCells(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	seen := map[int]bool{}
	c.Broadcast(0, 50, func(to int) { seen[to] = true })
	sim.RunAll()
	if len(seen) != 7 {
		t.Fatalf("broadcast reached %d hosts, want 7", len(seen))
	}
	if seen[0] {
		t.Fatal("broadcast delivered to sender")
	}
}

func TestCellularStableTransferUsesCurrentCell(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	if err := c.Handoff(0, 3); err != nil {
		t.Fatal(err)
	}
	before := c.Cell(3).Transmits
	done := false
	c.StableTransfer(0, 512*1024, des.Func(func() { done = true }))
	sim.RunAll()
	if !done {
		t.Fatal("transfer never completed")
	}
	if c.Cell(3).Transmits != before+1 {
		t.Fatal("transfer did not use the host's current cell")
	}
	if c.Cell(0).Transmits != 0 {
		t.Fatal("transfer leaked onto the old cell")
	}
}

func TestPerChannelFIFOManyMessages(t *testing.T) {
	sim := des.New()
	c := newCellular(sim, 8)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		c.Unicast(2, 3, 100, des.Func(func() { got = append(got, i) }))
		if i == 20 {
			c.Handoff(2, 3) //nolint:errcheck // mid-stream move
		}
		if i == 35 {
			c.Handoff(3, 0) //nolint:errcheck
		}
	}
	sim.RunAll()
	if len(got) != 50 {
		t.Fatalf("delivered %d, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestCellularConfigDefaults(t *testing.T) {
	sim := des.New()
	c := netsim.NewCellular(sim, 4, netsim.CellularConfig{MSSs: 2})
	if c.CellOf(3) != 1 {
		t.Fatal("custom MSS count ignored")
	}
}
