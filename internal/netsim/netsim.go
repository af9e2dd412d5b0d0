// Package netsim simulates the paper's network under virtual time: the
// shared-medium wireless LAN of its evaluation (§5.1). Every host and the
// stable storage at the MSS sit on one medium, which serializes all
// transmissions and so gives the reliable FIFO channels the paper's
// computation model requires. Faulty wraps a transport with loss,
// duplication, jitter, partitions and crashes; Reliable restores
// exactly-once FIFO channels over it with ARQ. A host's disconnection
// (§2.2) is the process runtime's business, not the network's: the MSS
// buffers for it in simrt.
package netsim

import (
	"time"

	"mutablecp/internal/des"
	"mutablecp/internal/protocol"
)

// ExactlyOnce marks transports that fire every deliver at most once (no
// duplication; reliable transports also never invent copies). The
// process runtime recycles message structs and delivery records only
// over such transports: a duplicating transport would fire one recycled
// — and by then reused — record twice.
type ExactlyOnce interface {
	DeliversExactlyOnce()
}

// PeerResetter marks transports that keep per-peer connection state (ARQ
// sequence numbers, give-up verdicts) which must be re-established when a
// process restarts after a crash. The recovery lifecycle calls ResetPeer
// for every process it restores; stateless transports simply don't
// implement it.
type PeerResetter interface {
	ResetPeer(p protocol.ProcessID)
}

// Transport is what the process runtime uses to move bytes.
type Transport interface {
	// Unicast schedules delivery of size bytes from one process to
	// another; deliver fires at the arrival instant. A deliver the caller
	// recycles after it fires (a pooled record) schedules with no
	// allocation on an exactly-once transport.
	Unicast(from, to protocol.ProcessID, size int, deliver des.Firer)
	// Broadcast delivers size bytes from one process to every other
	// process; deliver runs once per destination.
	Broadcast(from protocol.ProcessID, size int, deliver func(to protocol.ProcessID))
	// StableTransfer models moving a checkpoint from the process's host to
	// stable storage at its MSS; done, if any, fires when the transfer
	// completes.
	StableTransfer(from protocol.ProcessID, size int, done des.Firer)
}

// Bandwidth is bits per second.
type Bandwidth float64

// WirelessLAN2Mbps is the IEEE 802.11 rate the paper simulates.
const WirelessLAN2Mbps Bandwidth = 2_000_000

// TxTime returns the transmission time of size bytes at bandwidth b.
func TxTime(size int, b Bandwidth) time.Duration {
	if b <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	bits := float64(size) * 8
	return time.Duration(bits / float64(b) * float64(time.Second))
}

// Medium is the paper's wireless LAN channel: shared and half-duplex, one
// transmission at a time, strictly FIFO in request order. Its
// completion times never decrease, so its deliveries go to the kernel's
// FIFO (des.Simulator.ScheduleFIFO) rather than its heap.
type Medium struct {
	sim       *des.Simulator
	bandwidth Bandwidth
	freeAt    time.Duration

	// Totals for reports.
	BytesCarried uint64
	Transmits    uint64
}

// NewMedium returns a shared medium on the simulator.
func NewMedium(sim *des.Simulator, b Bandwidth) *Medium {
	return &Medium{sim: sim, bandwidth: b}
}

// Transmit queues size bytes on the medium and fires deliver, if any,
// when the transmission ends. It returns the completion time.
func (m *Medium) Transmit(size int, deliver des.Firer) time.Duration {
	start := m.sim.Now()
	if m.freeAt > start {
		start = m.freeAt
	}
	end := start + TxTime(size, m.bandwidth)
	m.freeAt = end
	m.BytesCarried += uint64(size)
	m.Transmits++
	if deliver != nil {
		m.sim.ScheduleFIFO(end, deliver)
	}
	return end
}

// TransmitBroadcast queues size bytes once and fires each deliver at the
// completion instant (a single radio transmission reaches every station
// on the LAN).
func (m *Medium) TransmitBroadcast(size int, delivers []des.Firer) time.Duration {
	start := m.sim.Now()
	if m.freeAt > start {
		start = m.freeAt
	}
	end := start + TxTime(size, m.bandwidth)
	m.freeAt = end
	m.BytesCarried += uint64(size)
	m.Transmits++
	for _, d := range delivers {
		if d != nil {
			m.sim.ScheduleFIFO(end, d)
		}
	}
	return end
}

// LAN is the §5.1 evaluation topology: N mobile hosts and the stable
// storage all attached to one shared wireless medium. Any unicast is a
// single transmission; a checkpoint transfer to stable storage occupies
// the medium for size/bandwidth (2 s for the paper's 512 KB at 2 Mbps).
type LAN struct {
	medium *Medium
	n      int
	// scratch is Broadcast's reusable delivery list; the medium schedules
	// every entry before TransmitBroadcast returns, so the backing array
	// is free for the next broadcast.
	scratch []des.Firer
	// free holds fired broadcast deliveries for reuse: the LAN fires each
	// of its own records exactly once, whatever transport wraps it.
	free []*fanout
}

// fanout is one destination of a LAN broadcast: the typed event the
// medium fires in place of a per-destination closure.
type fanout struct {
	lan     *LAN
	deliver func(to protocol.ProcessID)
	to      protocol.ProcessID
}

// Fire recycles the record, then delivers to its destination.
func (f *fanout) Fire() {
	deliver, to := f.deliver, f.to
	f.deliver = nil
	f.lan.free = append(f.lan.free, f)
	deliver(to)
}

var _ Transport = (*LAN)(nil)
var _ ExactlyOnce = (*LAN)(nil)

// DeliversExactlyOnce marks the LAN as duplicate-free: one transmission,
// one scheduled delivery per destination.
func (l *LAN) DeliversExactlyOnce() {}

// NewLAN builds the shared-medium topology for n processes.
func NewLAN(sim *des.Simulator, n int, b Bandwidth) *LAN {
	return &LAN{medium: NewMedium(sim, b), n: n}
}

// Medium exposes the underlying shared medium (tests, reports).
func (l *LAN) Medium() *Medium { return l.medium }

// Unicast implements Transport.
func (l *LAN) Unicast(_, _ protocol.ProcessID, size int, deliver des.Firer) {
	l.medium.Transmit(size, deliver)
}

// Broadcast implements Transport: one transmission reaches all stations.
func (l *LAN) Broadcast(from protocol.ProcessID, size int, deliver func(to protocol.ProcessID)) {
	delivers := l.scratch[:0]
	for to := 0; to < l.n; to++ {
		if to == from {
			continue
		}
		var f *fanout
		if n := len(l.free); n > 0 {
			f, l.free = l.free[n-1], l.free[:n-1]
		} else {
			f = &fanout{lan: l}
		}
		f.deliver, f.to = deliver, to
		delivers = append(delivers, f)
	}
	l.medium.TransmitBroadcast(size, delivers)
	l.scratch = delivers
}

// StableTransfer implements Transport: the checkpoint crosses the wireless
// medium to the MSS.
func (l *LAN) StableTransfer(_ protocol.ProcessID, size int, done des.Firer) {
	l.medium.Transmit(size, done)
}
