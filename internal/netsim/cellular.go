package netsim

import (
	"fmt"
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/protocol"
)

// Cellular models the paper's general system architecture (§2.1): mobile
// hosts live in cells, each cell is served by one mobile support station
// with its own shared wireless medium, and the MSSs are connected by a
// wired network. A message between hosts in different cells crosses the
// sender's cell uplink, the wired network, and the receiver's cell
// downlink.
//
// Handoff moves a host between cells at any time. Because messages in
// flight keep the route they started with, a handoff can reorder
// deliveries; a per-channel resequencing buffer restores the reliable
// FIFO delivery the computation model requires.
type Cellular struct {
	sim    *des.Simulator
	n      int
	numMSS int

	cells        []*Medium // one shared wireless medium per cell
	wiredLatency time.Duration
	wiredBW      Bandwidth

	location []int // process -> cell index

	// FIFO resequencing per directed channel.
	nextSeq  map[[2]protocol.ProcessID]uint64
	expected map[[2]protocol.ProcessID]uint64
	pending  map[[2]protocol.ProcessID]map[uint64]des.Firer

	// Handoffs counts completed cell changes.
	Handoffs uint64
	// Reordered counts deliveries that had to wait in the resequencer.
	Reordered uint64
}

var _ Transport = (*Cellular)(nil)

// CellularConfig configures the topology.
type CellularConfig struct {
	// MSSs is the number of support stations (cells). Default 4.
	MSSs int
	// WirelessBandwidth is the per-cell rate. Default 2 Mbps.
	WirelessBandwidth Bandwidth
	// WiredBandwidth is the MSS-to-MSS rate. Default 10 Mbps.
	WiredBandwidth Bandwidth
	// WiredLatency is the propagation delay per wired hop. Default 1 ms.
	WiredLatency time.Duration
}

func (c CellularConfig) defaults() CellularConfig {
	if c.MSSs == 0 {
		c.MSSs = 4
	}
	if c.WirelessBandwidth == 0 {
		c.WirelessBandwidth = WirelessLAN2Mbps
	}
	if c.WiredBandwidth == 0 {
		c.WiredBandwidth = Wired10Mbps
	}
	if c.WiredLatency == 0 {
		c.WiredLatency = time.Millisecond
	}
	return c
}

// NewCellular builds the topology for n processes spread round-robin over
// the cells.
func NewCellular(sim *des.Simulator, n int, cfg CellularConfig) *Cellular {
	cfg = cfg.defaults()
	c := &Cellular{
		sim:          sim,
		n:            n,
		numMSS:       cfg.MSSs,
		wiredLatency: cfg.WiredLatency,
		wiredBW:      cfg.WiredBandwidth,
		location:     make([]int, n),
		nextSeq:      make(map[[2]protocol.ProcessID]uint64),
		expected:     make(map[[2]protocol.ProcessID]uint64),
		pending:      make(map[[2]protocol.ProcessID]map[uint64]des.Firer),
	}
	c.cells = make([]*Medium, cfg.MSSs)
	for i := range c.cells {
		c.cells[i] = NewMedium(sim, cfg.WirelessBandwidth)
	}
	for p := 0; p < n; p++ {
		c.location[p] = p % cfg.MSSs
	}
	return c
}

// DeliversExactlyOnce marks the cellular transport as duplicate-free: the
// resequencing buffer releases each delivery exactly once, in order.
func (c *Cellular) DeliversExactlyOnce() {}

var _ ExactlyOnce = (*Cellular)(nil)

// CellOf returns the cell a process is currently in.
func (c *Cellular) CellOf(p protocol.ProcessID) int { return c.location[p] }

// Cell returns cell i's wireless medium (tests).
func (c *Cellular) Cell(i int) *Medium { return c.cells[i] }

// Handoff moves a process to another cell. It returns an error for an
// invalid cell or a no-op move.
func (c *Cellular) Handoff(p protocol.ProcessID, cell int) error {
	if cell < 0 || cell >= c.numMSS {
		return fmt.Errorf("netsim: no such cell %d", cell)
	}
	if c.location[p] == cell {
		return fmt.Errorf("netsim: P%d already in cell %d", p, cell)
	}
	c.location[p] = cell
	c.Handoffs++
	return nil
}

// Unicast implements Transport: uplink, wired hop (if inter-cell),
// downlink, then in-order delivery.
func (c *Cellular) Unicast(from, to protocol.ProcessID, size int, deliver des.Firer) {
	ch := [2]protocol.ProcessID{from, to}
	seq := c.nextSeq[ch]
	c.nextSeq[ch] = seq + 1

	srcCell := c.location[from]
	dstCell := c.location[to]
	final := des.Func(func() { c.resequence(ch, seq, deliver) })

	if srcCell == dstCell {
		// One transmission on the shared cell medium reaches both the MSS
		// and the destination host.
		c.cells[srcCell].Transmit(size, final)
		return
	}
	downlink := func() {
		// The route was fixed at send time; a handoff mid-flight means the
		// MSS forwards to the host's current cell, adding another wired
		// hop, which we fold into the (already counted) latency.
		cur := c.location[to]
		c.cells[cur].Transmit(size, final)
	}
	wired := des.Func(func() {
		delay := c.wiredLatency + TxTime(size, c.wiredBW)
		c.sim.Schedule(delay, downlink)
	})
	c.cells[srcCell].Transmit(size, wired)
}

// resequence delivers in per-channel FIFO order regardless of route
// changes caused by handoffs.
func (c *Cellular) resequence(ch [2]protocol.ProcessID, seq uint64, deliver des.Firer) {
	exp := c.expected[ch]
	if seq != exp {
		c.Reordered++
		m := c.pending[ch]
		if m == nil {
			m = make(map[uint64]des.Firer)
			c.pending[ch] = m
		}
		m[seq] = deliver
		return
	}
	deliver.Fire()
	exp++
	m := c.pending[ch]
	for {
		next, ok := m[exp]
		if !ok {
			break
		}
		delete(m, exp)
		next.Fire()
		exp++
	}
	c.expected[ch] = exp
}

// Broadcast implements Transport: one wired fan-out plus one wireless
// transmission per cell. Each delivery takes its per-channel FIFO slot at
// send time and goes through the resequencer, so a broadcast can neither
// overtake unicasts buffered for resequencing after a handoff nor be
// overtaken by later, faster-routed sends on the same channel.
func (c *Cellular) Broadcast(from protocol.ProcessID, size int, deliver func(to protocol.ProcessID)) {
	srcCell := c.location[from]
	perCell := make([][]des.Firer, c.numMSS)
	for p := 0; p < c.n; p++ {
		if p == from {
			continue
		}
		p := p
		ch := [2]protocol.ProcessID{from, p}
		seq := c.nextSeq[ch]
		c.nextSeq[ch] = seq + 1
		cell := c.location[p]
		perCell[cell] = append(perCell[cell], des.Func(func() {
			c.resequence(ch, seq, des.Func(func() { deliver(p) }))
		}))
	}
	// Uplink once in the source cell (this also reaches same-cell peers),
	// then wired fan-out to the other cells, in cell order.
	for cell := 0; cell < c.numMSS; cell++ {
		delivers := perCell[cell]
		if len(delivers) == 0 {
			continue
		}
		if cell == srcCell {
			c.cells[cell].TransmitBroadcast(size, delivers)
			continue
		}
		cell := cell
		c.cells[srcCell].Transmit(size, des.Func(func() {
			c.sim.Schedule(c.wiredLatency+TxTime(size, c.wiredBW), func() {
				c.cells[cell].TransmitBroadcast(size, delivers)
			})
		}))
	}
}

// StableTransfer implements Transport: the checkpoint crosses the host's
// current cell uplink to its MSS.
func (c *Cellular) StableTransfer(from protocol.ProcessID, size int, done des.Firer) {
	c.cells[c.location[from]].Transmit(size, done)
}
